type event =
  | Page_alloc of { page : int; eu : int; idx : int }
  | Merge of { old_eu : int; new_eu : int }
  | Overflow_alloc of { eu : int }
  | Overflow_assign of { data_eu : int; sector : int }
  | Overflow_release of { data_eu : int }
  | Overflow_free of { eu : int }
  | Remap of { virt : int; phys : int }
  | Retire of { block : int }
  | Degraded
  | Ckpt_eu of { eu : int; used_log : int; overflow : int; counts : (int * int) list }
  | Ckpt of { active : int list; trx_watermark : int }

type t = { log : Seq_log.t; mutable snapshot : (unit -> event list) option }

let u32 b pos n = Bytes.set_int32_le b pos (Int32.of_int n)
let g32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

let encode = function
  | Page_alloc { page; eu; idx } ->
      let b = Bytes.create 13 in
      Bytes.set_uint8 b 0 0;
      u32 b 1 page;
      u32 b 5 eu;
      u32 b 9 idx;
      b
  | Merge { old_eu; new_eu } ->
      let b = Bytes.create 9 in
      Bytes.set_uint8 b 0 1;
      u32 b 1 old_eu;
      u32 b 5 new_eu;
      b
  | Overflow_alloc { eu } ->
      let b = Bytes.create 5 in
      Bytes.set_uint8 b 0 2;
      u32 b 1 eu;
      b
  | Overflow_assign { data_eu; sector } ->
      let b = Bytes.create 9 in
      Bytes.set_uint8 b 0 3;
      u32 b 1 data_eu;
      u32 b 5 sector;
      b
  | Overflow_release { data_eu } ->
      let b = Bytes.create 5 in
      Bytes.set_uint8 b 0 4;
      u32 b 1 data_eu;
      b
  | Overflow_free { eu } ->
      let b = Bytes.create 5 in
      Bytes.set_uint8 b 0 5;
      u32 b 1 eu;
      b
  | Remap { virt; phys } ->
      let b = Bytes.create 9 in
      Bytes.set_uint8 b 0 6;
      u32 b 1 virt;
      u32 b 5 phys;
      b
  | Retire { block } ->
      let b = Bytes.create 5 in
      Bytes.set_uint8 b 0 7;
      u32 b 1 block;
      b
  | Degraded ->
      let b = Bytes.create 1 in
      Bytes.set_uint8 b 0 8;
      b
  | Ckpt_eu { eu; used_log; overflow; counts } ->
      let n = List.length counts in
      let b = Bytes.create (17 + (8 * n)) in
      Bytes.set_uint8 b 0 9;
      u32 b 1 eu;
      u32 b 5 used_log;
      u32 b 9 overflow;
      u32 b 13 n;
      List.iteri
        (fun i (txid, c) ->
          u32 b (17 + (8 * i)) txid;
          u32 b (21 + (8 * i)) c)
        counts;
      b
  | Ckpt { active; trx_watermark } ->
      let n = List.length active in
      let b = Bytes.create (9 + (4 * n)) in
      Bytes.set_uint8 b 0 10;
      u32 b 1 trx_watermark;
      u32 b 5 n;
      List.iteri (fun i txid -> u32 b (9 + (4 * i)) txid) active;
      b

let decode b =
  match Bytes.get_uint8 b 0 with
  | 0 -> Page_alloc { page = g32 b 1; eu = g32 b 5; idx = g32 b 9 }
  | 1 -> Merge { old_eu = g32 b 1; new_eu = g32 b 5 }
  | 2 -> Overflow_alloc { eu = g32 b 1 }
  | 3 -> Overflow_assign { data_eu = g32 b 1; sector = g32 b 5 }
  | 4 -> Overflow_release { data_eu = g32 b 1 }
  | 5 -> Overflow_free { eu = g32 b 1 }
  | 6 -> Remap { virt = g32 b 1; phys = g32 b 5 }
  | 7 -> Retire { block = g32 b 1 }
  | 8 -> Degraded
  | 9 ->
      let n = g32 b 13 in
      let counts =
        List.init n (fun i -> (g32 b (17 + (8 * i)), g32 b (21 + (8 * i))))
      in
      Ckpt_eu { eu = g32 b 1; used_log = g32 b 5; overflow = g32 b 9; counts }
  | 10 ->
      let n = g32 b 5 in
      Ckpt
        { active = List.init n (fun i -> g32 b (9 + (4 * i))); trx_watermark = g32 b 1 }
  | _ -> invalid_arg "Meta_log.decode: unknown tag"

(* The bad-block manager's persistent events are a subset of ours. *)
let of_bbm_event = function
  | Resilience.Bbm.P_remap { virt; phys } -> Remap { virt; phys }
  | Resilience.Bbm.P_retire { block } -> Retire { block }
  | Resilience.Bbm.P_degraded -> Degraded

let to_bbm_event = function
  | Remap { virt; phys } -> Some (Resilience.Bbm.P_remap { virt; phys })
  | Retire { block } -> Some (Resilience.Bbm.P_retire { block })
  | Degraded -> Some Resilience.Bbm.P_degraded
  | _ -> None

let create chip ~first_block ~num_blocks =
  { log = Seq_log.create chip ~first_block ~num_blocks; snapshot = None }

let recover chip ~first_block ~num_blocks =
  let log = Seq_log.recover chip ~first_block ~num_blocks in
  let events = List.map decode (Seq_log.records log) in
  ({ log; snapshot = None }, events)

let set_snapshot t f = t.snapshot <- Some f

let compact t =
  match t.snapshot with
  | None -> failwith "Meta_log: region full and no snapshot function registered"
  | Some f ->
      let events = f () in
      Seq_log.reset t.log;
      List.iter
        (fun e ->
          match Seq_log.append t.log (encode e) with
          | `Ok -> ()
          | `Full -> failwith "Meta_log: region too small for snapshot")
        events;
      Seq_log.force t.log

let log t event =
  match Seq_log.append t.log (encode event) with
  | `Ok -> ()
  | `Full -> (
      compact t;
      match Seq_log.append t.log (encode event) with
      | `Ok -> ()
      | `Full -> failwith "Meta_log: region too small")

let publish t = Seq_log.publish t.log
let force t = Seq_log.force t.log

type mark = Seq_log.mark

let mark t = Seq_log.mark t.log
let rollback t m = Seq_log.rollback t.log m
let recompact t = compact t
