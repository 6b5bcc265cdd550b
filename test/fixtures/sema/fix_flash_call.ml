(* Direct chip mutations; test_sema relabels this unit into different
   lib/ directories to check the flash-call allowlist. *)

module Chip = Flash_chip

let chip : Flash_chip.t = ()
let write s = Chip.write_sectors chip ~sector:0 s
let erase () = Flash_chip.erase_block chip 0

(* clean anywhere: reads. *)
let read () = Bytes.length (Chip.read_sectors chip ~sector:0 1)
