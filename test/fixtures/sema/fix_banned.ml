(* Seeded banned-construct violations plus clean controls; test_sema also
   relabels this unit as lib/util/byte_arena.ml. *)

let magic x = Obj.magic x
let unsafe b = Bytes.unsafe_get b 0
let poly a b = Bytes.sub a 0 4 = b

(* clean: scalar accessors compare fine; Bytes.equal is the blessed form. *)
let scalar a n = Bytes.length a = n
let blessed a b = Bytes.equal (Bytes.sub a 0 4) b
