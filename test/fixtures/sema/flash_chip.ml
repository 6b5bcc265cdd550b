(* Mock carrying the contract exceptions' names and the chip operations
   the flash-call and dropped-result rules restrict. *)

exception Read_error of int
exception Program_error of int
exception Erase_error of int

type t = unit

let read_sectors (_ : t) ~sector:(_ : int) (_ : int) = Bytes.empty
let write_sectors (_ : t) ~sector:(_ : int) (_ : bytes) = ()
let erase_block (_ : t) (_ : int) = ()
