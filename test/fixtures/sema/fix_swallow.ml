(* Seeded no-silent-swallow violations plus clean controls. *)

(* FINDING: wildcard handler. *)
let wildcard g = try g () with _ -> ()

(* FINDING: named but unused exception. *)
let unused g = try g () with e -> ()

(* clean: a specific exception. *)
let specific g = try g () with Not_found -> ()

(* clean: the exception is re-raised. *)
let reraised g = try g () with e -> raise e

(* FINDING: an or-pattern ending in a wildcard. *)
let or_wildcard g = try g () with Not_found | _ -> ()
