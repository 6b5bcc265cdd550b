type t = {
  capacity : int;
  mutable rev_records : Log_record.t list;
  mutable count : int;
  mutable used : int;  (* bytes, including header *)
}

exception Record_too_large of int

let header_size = 8

let create ~capacity =
  if capacity <= header_size then invalid_arg "Log_sector.create: capacity too small";
  { capacity; rev_records = []; count = 0; used = header_size }

let add t r =
  let sz = Log_record.encoded_size r in
  if sz > t.capacity - header_size then raise (Record_too_large sz);
  if t.used + sz > t.capacity then `Full
  else begin
    t.rev_records <- r :: t.rev_records;
    t.count <- t.count + 1;
    t.used <- t.used + sz;
    `Added
  end

(* Greedy, in order: a sector is sealed only when the next record does
   not fit it, which for contiguous runs is also the fewest sectors. *)
let pack ~capacity records =
  let rec go cur acc = function
    | [] -> List.rev (if cur.count = 0 then acc else cur :: acc)
    | r :: rest -> (
        match add cur r with
        | `Added -> go cur acc rest
        | `Full ->
            let next = create ~capacity in
            (match add next r with
            | `Added -> ()
            | `Full -> assert false (* an empty sector takes any record [add] admits *));
            go next (cur :: acc) rest)
  in
  go (create ~capacity) [] records

let records t = List.rev t.rev_records
let count t = t.count
let bytes_used t = t.used
let is_empty t = t.count = 0

let clear t =
  t.rev_records <- [];
  t.count <- 0;
  t.used <- header_size

let remove_txn t txid =
  let mine, others = List.partition (fun r -> r.Log_record.txid = txid) t.rev_records in
  t.rev_records <- others;
  t.count <- List.length others;
  t.used <-
    header_size + List.fold_left (fun acc r -> acc + Log_record.encoded_size r) 0 others;
  List.rev mine

(* A top-level walk: a local closure would allocate. *)
let rec mem_user_txn = function
  | [] -> false
  | r :: rest -> r.Log_record.txid <> 0 || mem_user_txn rest

let has_user_txn t = mem_user_txn t.rev_records

exception Corrupt

let serialize t =
  let buf = Buffer.create t.capacity in
  Buffer.add_uint16_le buf t.count;
  Buffer.add_uint16_le buf t.used;
  Buffer.add_int32_le buf 0l (* checksum placeholder *);
  List.iter (Log_record.encode buf) (records t);
  let b = Buffer.to_bytes buf in
  let out = Bytes.make t.capacity '\xff' in
  Bytes.blit b 0 out 0 (Bytes.length b);
  let crc = Ipl_util.Checksum.crc32 out ~pos:header_size ~len:(t.used - header_size) in
  Bytes.set_int32_le out 4 (Int32.of_int crc);
  out

let deserialize b =
  if Bytes.length b < header_size then invalid_arg "Log_sector.deserialize: too small";
  let count = Bytes.get_uint16_le b 0 in
  let used = Bytes.get_uint16_le b 2 in
  if used > Bytes.length b || used < header_size then
    invalid_arg "Log_sector.deserialize: bad used field";
  let stored = Int32.to_int (Bytes.get_int32_le b 4) land 0xFFFFFFFF in
  let actual = Ipl_util.Checksum.crc32 b ~pos:header_size ~len:(used - header_size) in
  if stored <> actual then raise Corrupt;
  let rec go pos n acc =
    if n = 0 then List.rev acc
    else
      let r, pos = Log_record.decode b ~pos in
      go pos (n - 1) (r :: acc)
  in
  go header_size count []
