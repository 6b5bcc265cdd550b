(* Raw geometry literals; test_sema relabels this unit as a config module
   to check the exemption. *)

let page_size = 8192
let sector = 512
let eu = 131072

(* clean: not geometry. *)
let a = 4096
let b = 100
