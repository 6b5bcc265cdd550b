type op =
  | Insert of { slot : int; record : bytes }
  | Delete of { slot : int; before : bytes }
  | Update_range of { slot : int; offset : int; before : bytes; after : bytes }
  | Update_full of { slot : int; before : bytes; after : bytes }

type t = { txid : int; page : int; op : op }

(* Wire format: tag:u8 txid:u32 page:u32 slot:u16, then per-op payload.
   All multi-byte fields little-endian. *)

let header_size = 11

let encoded_size t =
  header_size
  +
  match t.op with
  | Insert { record; _ } -> 2 + Bytes.length record
  | Delete { before; _ } -> 2 + Bytes.length before
  | Update_range { before; after; _ } -> 2 + 2 + Bytes.length before + Bytes.length after
  | Update_full { before; after; _ } -> 2 + 2 + Bytes.length before + Bytes.length after

let add_u16 buf n =
  if n < 0 || n > 0xFFFF then invalid_arg "Log_record: u16 out of range";
  Buffer.add_uint16_le buf n

let add_u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Log_record: u32 out of range";
  Buffer.add_int32_le buf (Int32.of_int n)

let add_sized buf b =
  add_u16 buf (Bytes.length b);
  Buffer.add_bytes buf b

let slot_of = function
  | Insert { slot; _ } | Delete { slot; _ } | Update_range { slot; _ } | Update_full { slot; _ }
    -> slot

let encode buf t =
  let tag =
    match t.op with
    | Insert _ -> 0
    | Delete _ -> 1
    | Update_range _ -> 2
    | Update_full _ -> 3
  in
  Buffer.add_uint8 buf tag;
  add_u32 buf t.txid;
  add_u32 buf t.page;
  add_u16 buf (slot_of t.op);
  match t.op with
  | Insert { record; _ } -> add_sized buf record
  | Delete { before; _ } -> add_sized buf before
  | Update_range { offset; before; after; _ } ->
      if Bytes.length before <> Bytes.length after then
        invalid_arg "Log_record.encode: update_range images differ in length";
      add_u16 buf offset;
      add_u16 buf (Bytes.length before);
      Buffer.add_bytes buf before;
      Buffer.add_bytes buf after
  | Update_full { before; after; _ } ->
      add_sized buf before;
      add_sized buf after

let get_u16 b pos = Bytes.get_uint16_le b pos
let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

let get_sized b pos =
  let len = get_u16 b pos in
  (Bytes.sub b (pos + 2) len, pos + 2 + len)

let decode b ~pos =
  if pos + header_size > Bytes.length b then invalid_arg "Log_record.decode: truncated header";
  let tag = Bytes.get_uint8 b pos in
  let txid = get_u32 b (pos + 1) in
  let page = get_u32 b (pos + 5) in
  let slot = get_u16 b (pos + 9) in
  let pos = pos + header_size in
  let op, pos =
    match tag with
    | 0 ->
        let record, pos = get_sized b pos in
        (Insert { slot; record }, pos)
    | 1 ->
        let before, pos = get_sized b pos in
        (Delete { slot; before }, pos)
    | 2 ->
        let offset = get_u16 b pos in
        let len = get_u16 b (pos + 2) in
        let before = Bytes.sub b (pos + 4) len in
        let after = Bytes.sub b (pos + 4 + len) len in
        (Update_range { slot; offset; before; after }, pos + 4 + (2 * len))
    | 3 ->
        let before, pos = get_sized b pos in
        let after, pos = get_sized b pos in
        (Update_full { slot; before; after }, pos)
    | _ -> invalid_arg "Log_record.decode: unknown tag"
  in
  ({ txid; page; op }, pos)

let apply page t =
  match t.op with
  | Insert { slot; record } -> Storage.Page.insert_at page slot record
  | Delete { slot; _ } -> Storage.Page.delete page slot
  | Update_range { slot; offset; after; _ } -> Storage.Page.update_bytes page ~slot ~offset after
  | Update_full { slot; after; _ } -> Storage.Page.update page slot after

type replay_failure = { record : t; error : Storage.Page.error }

exception Replay_failed of replay_failure

(* A top-level walk: the read path replays every page it fetches, and
   this allocates no closure. *)
let rec replay page = function
  | [] -> ()
  | r :: rest -> (
      match apply page r with
      | Ok () -> replay page rest
      | Error error -> raise (Replay_failed { record = r; error }))

let op_name t =
  match t.op with
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Update_range _ | Update_full _ -> "update"

let pp ppf t =
  Format.fprintf ppf "{tx=%d page=%d slot=%d %s %dB}" t.txid t.page (slot_of t.op)
    (op_name t) (encoded_size t)

let slot t = slot_of t.op

let pp_replay_failure ppf { record; error } =
  Format.fprintf ppf "log replay failed (%s) on %a" (Storage.Page.error_to_string error) pp record

let () =
  Printexc.register_printer (function
    | Replay_failed f -> Some (Format.asprintf "Log_record.Replay_failed: %a" pp_replay_failure f)
    | _ -> None)
