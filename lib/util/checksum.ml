(* Slicing-by-4: [tables] holds four 256-entry tables back to back.
   Table 0 is the classic byte-at-a-time table; entry [n] of table [k]
   is the CRC register after feeding byte [n] followed by [k] zero
   bytes, so one lookup per byte of a little-endian 32-bit word advances
   the register by four bytes at once. *)
let table_size = 256

let tables =
  let t = Array.make (4 * table_size) 0 in
  for n = 0 to table_size - 1 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 0 to (3 * table_size) - 1 do
    let c = t.(n) in
    t.(n + table_size) <- (c lsr 8) lxor t.(c land 0xFF)
  done;
  t

let crc32 ?(init = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.crc32: range out of bounds";
  let t = tables in
  let c = ref ((init lxor 0xFFFFFFFF) land 0xFFFFFFFF) and i = ref pos in
  let words_end = pos + len - 3 in
  while !i < words_end do
    let x = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    c :=
      t.((3 * table_size) + (x land 0xFF))
      lxor t.((2 * table_size) + ((x lsr 8) land 0xFF))
      lxor t.(table_size + ((x lsr 16) land 0xFF))
      lxor t.(x lsr 24);
    i := !i + 4
  done;
  for j = !i to pos + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_bytes b = crc32 b ~pos:0 ~len:(Bytes.length b)
