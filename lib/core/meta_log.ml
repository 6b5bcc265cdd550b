type event =
  | Page_alloc of { page : int; eu : int; idx : int; sectors : int; start : int; base : int }
  | Merge of { units : (int * int) list; trades : (int * int) list; sectors : int array list }
  | Overflow_alloc of { eu : int }
  | Overflow_assign of { data_eu : int; sector : int }
  | Overflow_release of { data_eu : int }
  | Overflow_free of { eu : int }
  | Remap of { virt : int; phys : int }
  | Retire of { block : int }
  | Degraded
  | Trx_begin of { txid : int }
  | Trx_commit of { txid : int }
  | Trx_abort of { txid : int }
  | Trx_high of { txid : int }

(* The region is two halves that take turns. The live half holds the
   log; a compaction writes its snapshot into the other, erased half,
   forces it, makes that half live, and only then erases the old one, so
   a crash at any point of a compaction leaves one complete log to
   restart from. *)
type t = {
  halves : Seq_log.t array;
  mutable live : int;  (* index of the live half *)
  mutable epoch : int;  (* compaction generation of the live half *)
  mutable snapshot : (unit -> event list) option;
}

let u32 b pos n = Bytes.set_int32_le b pos (Int32.of_int n)
let g32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

(* Record format: tag:u8, then the event's u32 fields in order; a page's
   image sectors, its first sector and its unit's log base take one byte
   each. Tags 9 and 10 are unused. *)
let header tag ~fields =
  let b = Bytes.create (1 + (4 * fields)) in
  Bytes.set_uint8 b 0 tag;
  b

let one tag x =
  let b = header tag ~fields:1 in
  u32 b 1 x;
  b

let two tag x y =
  let b = header tag ~fields:2 in
  u32 b 1 x;
  u32 b 5 y;
  b

(* A pair merge's traded slots, one bitmap per unit: the k-th set bit of
   the first unit's map trades with the k-th of the second's. *)
let rec increasing = function a :: (b :: _ as rest) -> a < b && increasing rest | _ -> true

let set_bits b pos slots =
  List.iter
    (fun i ->
      let byte = pos + (i / 8) in
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lor (1 lsl (i mod 8))))
    slots

let get_bits b pos len =
  List.filter
    (fun i -> Bytes.get_uint8 b (pos + (i / 8)) land (1 lsl (i mod 8)) <> 0)
    (List.init (8 * len) Fun.id)

(* A merge: tag, the unit count n:u8, n (old, new) pairs, the slots per
   unit d:u16, each unit's d image sectors by slot after the merge, then
   for a pair its two ceil(d/8)-byte trade bitmaps. *)
let encode_merge units trades sectors =
  let n = List.length units and d = match sectors with s :: _ -> Array.length s | [] -> 0 in
  let first = List.map fst trades and second = List.map snd trades in
  if n < 1 || n > 2 || (n = 1 && trades <> []) then
    invalid_arg "Meta_log.encode: a merge covers one or two units";
  if List.compare_lengths sectors units <> 0 || List.exists (fun s -> Array.length s <> d) sectors
  then invalid_arg "Meta_log.encode: a merge needs one sector array per unit, all alike";
  if not (increasing first && increasing second && List.for_all (fun i -> i < d) (first @ second))
  then invalid_arg "Meta_log.encode: a merge's trades must increase in both slots";
  let at = 4 + (8 * n) and len = if n = 2 then (d + 7) / 8 else 0 in
  let b = Bytes.make (at + (n * d) + (2 * len)) '\000' in
  Bytes.set_uint8 b 0 1;
  Bytes.set_uint8 b 1 n;
  List.iteri
    (fun k (old_eu, new_eu) ->
      u32 b (2 + (8 * k)) old_eu;
      u32 b (6 + (8 * k)) new_eu)
    units;
  Bytes.set_uint16_le b (at - 2) d;
  List.iteri (fun k s -> Array.iteri (fun i x -> Bytes.set_uint8 b (at + (k * d) + i) x) s) sectors;
  set_bits b (at + (n * d)) first;
  set_bits b (at + (n * d) + len) second;
  b

let decode_merge b =
  let n = Bytes.get_uint8 b 1 in
  let at = 4 + (8 * n) in
  let d = Bytes.get_uint16_le b (at - 2) in
  let len = if n = 2 then (d + 7) / 8 else 0 in
  Merge
    {
      units = List.init n (fun k -> (g32 b (2 + (8 * k)), g32 b (6 + (8 * k))));
      trades = List.combine (get_bits b (at + (n * d)) len) (get_bits b (at + (n * d) + len) len);
      sectors = List.init n (fun k -> Array.init d (fun i -> Bytes.get_uint8 b (at + (k * d) + i)));
    }

let encode = function
  | Page_alloc { page; eu; idx; sectors; start; base } ->
      let b = Bytes.create 16 in
      Bytes.set_uint8 b 0 0;
      u32 b 1 page;
      u32 b 5 eu;
      u32 b 9 idx;
      Bytes.set_uint8 b 13 sectors;
      Bytes.set_uint8 b 14 start;
      Bytes.set_uint8 b 15 base;
      b
  | Merge { units; trades; sectors } -> encode_merge units trades sectors
  | Overflow_alloc { eu } -> one 2 eu
  | Overflow_assign { data_eu; sector } -> two 3 data_eu sector
  | Overflow_release { data_eu } -> one 4 data_eu
  | Overflow_free { eu } -> one 5 eu
  | Remap { virt; phys } -> two 6 virt phys
  | Retire { block } -> one 7 block
  | Degraded -> header 8 ~fields:0
  | Trx_begin { txid } -> one 11 txid
  | Trx_commit { txid } -> one 12 txid
  | Trx_abort { txid } -> one 13 txid
  | Trx_high { txid } -> one 14 txid

let decode b =
  match Bytes.get_uint8 b 0 with
  | 0 ->
      Page_alloc
        {
          page = g32 b 1;
          eu = g32 b 5;
          idx = g32 b 9;
          sectors = Bytes.get_uint8 b 13;
          start = Bytes.get_uint8 b 14;
          base = Bytes.get_uint8 b 15;
        }
  | 1 -> decode_merge b
  | 2 -> Overflow_alloc { eu = g32 b 1 }
  | 3 -> Overflow_assign { data_eu = g32 b 1; sector = g32 b 5 }
  | 4 -> Overflow_release { data_eu = g32 b 1 }
  | 5 -> Overflow_free { eu = g32 b 1 }
  | 6 -> Remap { virt = g32 b 1; phys = g32 b 5 }
  | 7 -> Retire { block = g32 b 1 }
  | 8 -> Degraded
  | 11 -> Trx_begin { txid = g32 b 1 }
  | 12 -> Trx_commit { txid = g32 b 1 }
  | 13 -> Trx_abort { txid = g32 b 1 }
  | 14 -> Trx_high { txid = g32 b 1 }
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

(* A snapshot opens with a head record: the epoch of the half it starts
   and the number of events that follow it in the snapshot. Internal to
   this module, never decoded as an event. *)
let head_tag = 15

let head = function
  | r :: events when Bytes.length r = 9 && Bytes.get_uint8 r 0 = head_tag ->
      Some (g32 r 1, g32 r 5, events)
  | _ -> None

let split open_half dev ~first_block ~num_blocks =
  if num_blocks < 2 || num_blocks mod 2 <> 0 then
    invalid_arg "Meta_log: the region needs an even number of blocks";
  let half = num_blocks / 2 in
  Array.init 2 (fun i -> open_half dev ~first_block:(first_block + (i * half)) ~num_blocks:half)

let make halves ~live ~epoch = { halves; live; epoch; snapshot = None }
let live t = t.halves.(t.live)

(* A fresh region's log starts, with no head, in half 0 at epoch 0. *)
let create dev ~first_block ~num_blocks =
  make (split Seq_log.create dev ~first_block ~num_blocks) ~live:0 ~epoch:0

(* The live half is the one whose head carries the higher epoch, unless
   its snapshot is incomplete (the crash hit the compaction writing it):
   then it is the other. A half without a head counts as epoch 0; only
   half 0 of a log that never compacted has records and no head. The
   first sector of each written half is read once to learn its epoch,
   then the rest of the live half. *)
let recover dev ~first_block ~num_blocks =
  let halves = split Seq_log.recover dev ~first_block ~num_blocks in
  let firsts = Array.map Seq_log.first_records halves in
  let epoch i = match head firsts.(i) with Some (e, _, _) -> e | None -> 0 in
  let load i =
    let records = Seq_log.records ~first:firsts.(i) halves.(i) in
    match head records with
    | None -> (i, 0, records, true)
    | Some (e, n, events) -> (i, e, events, List.compare_length_with events n >= 0)
  in
  let newer = if epoch 1 > epoch 0 then 1 else 0 in
  let live, epoch, records, _ =
    match load newer with (_, _, _, true) as l -> l | _ -> load (1 - newer)
  in
  (make halves ~live ~epoch, List.map decode records)

let set_snapshot t f = t.snapshot <- Some f

let compact t =
  match t.snapshot with
  | None -> failwith "Meta_log: region full and no snapshot function registered"
  | Some f ->
      let events = f () in
      let old = live t and epoch = t.epoch + 1 in
      let log = t.halves.(1 - t.live) in
      (* Erased already, unless a crash cut the last compaction short. *)
      Seq_log.reset log;
      let append r =
        match Seq_log.append log r with
        | `Ok -> ()
        | `Full -> failwith "Meta_log: region too small for snapshot"
      in
      append (two head_tag epoch (List.length events));
      List.iter (fun e -> append (encode e)) events;
      Seq_log.force log;
      t.live <- 1 - t.live;
      t.epoch <- epoch;
      Seq_log.reset old

let log t event =
  match Seq_log.append (live t) (encode event) with
  | `Ok -> ()
  | `Full -> (
      compact t;
      match Seq_log.append (live t) (encode event) with
      | `Ok -> ()
      | `Full -> failwith "Meta_log: region too small")

let publish t = Seq_log.publish (live t)
let settle t = Seq_log.settle (live t)
let force t = Seq_log.force (live t)

type mark = { m_epoch : int; m_log : Seq_log.mark }

let mark t = { m_epoch = t.epoch; m_log = Seq_log.mark (live t) }
let rollback t m = m.m_epoch = t.epoch && Seq_log.rollback (live t) m.m_log
let compactions t = t.epoch
