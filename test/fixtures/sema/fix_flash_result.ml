(* Dropped chip-operation returns: read_sectors returns bytes, not a
   result, so only the chip-operation table can see these. *)

module Chip = Flash_chip

let chip : Flash_chip.t = ()

(* FINDING: dropped with ignore. *)
let ignored () = ignore (Chip.read_sectors chip ~sector:0 8)

(* FINDING: dropped with 'let _'. *)
let wildcard () =
  let _ = Chip.read_sectors chip ~sector:0 8 in
  ()

(* clean: bound and checked. *)
let bound () =
  let data = Chip.read_sectors chip ~sector:0 8 in
  Bytes.length data

(* clean: ignoring a non-flash call. *)
let other x = ignore (List.length x)
