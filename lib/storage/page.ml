(* Page layout:
     [0..1]   slot_count   (u16)
     [2..3]   free_start   (u16) first unused byte of the payload area
     [4..5]   live_count   (u16)
     [6..7]   magic 0x1b50 ("IPL page")
   Payload area: [header_size .. free_start).
   Slot directory: entries of 4 bytes (u16 offset, u16 length) growing down
   from the end; slot i lives at [size - 4*(i+1)]. length 0 = empty slot. *)

type t = bytes

let header_size = 8
let slot_entry_size = 4
let magic = 0x1b50

let size = Bytes.length
let slot_count p = Bytes.get_uint16_le p 0
let free_start p = Bytes.get_uint16_le p 2
let live_records p = Bytes.get_uint16_le p 4

let set_slot_count p n = Bytes.set_uint16_le p 0 n
let set_free_start p n = Bytes.set_uint16_le p 2 n
let set_live p n = Bytes.set_uint16_le p 4 n

let create sz =
  if sz < 64 || sz > 65528 then invalid_arg "Page.create: unsupported page size";
  let p = Bytes.make sz '\000' in
  set_free_start p header_size;
  Bytes.set_uint16_le p 6 magic;
  p

let of_bytes b =
  if Bytes.length b < 64 then invalid_arg "Page.of_bytes: too small";
  if Bytes.get_uint16_le b 6 <> magic then invalid_arg "Page.of_bytes: bad magic";
  b

let to_bytes p = p
let copy = Bytes.copy

let slot_pos p i = size p - (slot_entry_size * (i + 1))

let slot p i =
  let pos = slot_pos p i in
  (Bytes.get_uint16_le p pos, Bytes.get_uint16_le p (pos + 2))

let set_slot p i ~off ~len =
  let pos = slot_pos p i in
  Bytes.set_uint16_le p pos off;
  Bytes.set_uint16_le p (pos + 2) len

let dir_start p = size p - (slot_entry_size * slot_count p)

let is_live p i = i >= 0 && i < slot_count p && Bytes.get_uint16_le p (slot_pos p i + 2) > 0

let read p i = if is_live p i then
    let off, len = slot p i in
    Some (Bytes.sub p off len)
  else None

(* Payload bytes recoverable by compaction: everything in the payload area
   not covered by a live record. The tail the payload vacates is zeroed,
   so the gap between payload and directory stays all zeros, as an
   unpacked image's is. *)
let compact p =
  let n = slot_count p in
  let live = ref [] in
  for i = 0 to n - 1 do
    let off, len = slot p i in
    if len > 0 then live := (off, i, len) :: !live
  done;
  let live = List.sort compare !live in
  let cursor = ref header_size in
  let scratch = Bytes.create (size p) in
  List.iter
    (fun (off, i, len) ->
      Bytes.blit p off scratch !cursor len;
      set_slot p i ~off:!cursor ~len;
      cursor := !cursor + len)
    live;
  Bytes.blit scratch header_size p header_size (!cursor - header_size);
  Bytes.fill p !cursor (free_start p - !cursor) '\000';
  set_free_start p !cursor

(* A packed image is the page's two ends joined: header and payload
   [0, free_start), then the slot directory at once. *)
let image_length p = free_start p + (slot_entry_size * slot_count p)

let pack p dst =
  if Bytes.length dst < size p then invalid_arg "Page.pack: destination shorter than the page";
  let fs = free_start p and dir = slot_entry_size * slot_count p in
  Bytes.blit p 0 dst 0 fs;
  Bytes.blit p (size p - dir) dst fs dir;
  Bytes.fill dst (fs + dir) (size p - fs - dir) '\000';
  fs + dir

let unpack b =
  let p = of_bytes b in
  let fs = free_start p and dir = slot_entry_size * slot_count p in
  if fs < header_size || fs + dir > size p then invalid_arg "Page.unpack: bad image header";
  Bytes.blit p fs p (size p - dir) dir;
  Bytes.fill p fs (size p - dir - fs) '\000';
  p

(* The slot loops below step a directory position down from slot 0's
   entry instead of calling [slot_pos] per slot: at ocamlopt's default
   [-inline] level, [slot_pos] stays a real call even within this
   module. *)
let used_payload p =
  let total = ref 0 in
  let pos = ref (size p - slot_entry_size) in
  for _ = 1 to slot_count p do
    total := !total + Bytes.get_uint16_le p (!pos + 2);
    pos := !pos - slot_entry_size
  done;
  !total

let free_space p =
  let used = used_payload p in
  let dir = slot_entry_size * slot_count p in
  max 0 (size p - header_size - used - dir - slot_entry_size)

(* Contiguous room right now, without compaction, for [extra_slots] new
   directory entries and [len] payload bytes. *)
let contiguous_room p ~extra_slots ~len =
  dir_start p - (slot_entry_size * extra_slots) - free_start p >= len

let ensure_room p ~extra_slots ~len =
  if contiguous_room p ~extra_slots ~len then true
  else begin
    compact p;
    contiguous_room p ~extra_slots ~len
  end

(* A page with every slot live has no empty one, which the header's
   counts say without a scan. *)
let first_empty_slot p =
  let n = slot_count p in
  if live_records p = n then None
  else begin
    let i = ref 0 and pos = ref (size p - slot_entry_size + 2) in
    while !i < n && Bytes.get_uint16_le p !pos > 0 do
      incr i;
      pos := !pos - slot_entry_size
    done;
    if !i < n then Some !i else None
  end

let append_payload p data =
  let off = free_start p in
  Bytes.blit data 0 p off (Bytes.length data);
  set_free_start p (off + Bytes.length data);
  off

(* [insert] reuses a deleted slot if there is one, else it needs a new
   one; it compacts only when the contiguous space falls short. *)
let has_room p len =
  if contiguous_room p ~extra_slots:1 ~len then true
  else
    let extra_slots = if live_records p < slot_count p then 0 else 1 in
    size p - header_size - used_payload p - (slot_entry_size * (slot_count p + extra_slots)) >= len

let insert p data =
  let len = Bytes.length data in
  if len = 0 || len > 0xFFFF then invalid_arg "Page.insert: bad record length";
  (* Decided before any compaction: a failed insert leaves the page's
     bytes as they were, as a replay of its log (which never sees the
     failure) does. *)
  if not (has_room p len) then None
  else begin
    let reuse = first_empty_slot p in
    let extra_slots = match reuse with Some _ -> 0 | None -> 1 in
    let fits = ensure_room p ~extra_slots ~len in
    assert fits;
    let i = match reuse with Some i -> i | None -> let i = slot_count p in set_slot_count p (i + 1); i in
    let off = append_payload p data in
    set_slot p i ~off ~len;
    set_live p (live_records p + 1);
    Some i
  end

type error =
  [ `Bad_record_length | `Negative_slot | `Slot_already_live | `Slot_not_live
  | `Range_outside_record | `Page_full ]

let error_to_string = function
  | `Bad_record_length -> "bad record length"
  | `Negative_slot -> "negative slot"
  | `Slot_already_live -> "slot already live"
  | `Slot_not_live -> "slot not live"
  | `Range_outside_record -> "range outside record"
  | `Page_full -> "page full"

let insert_at p i data =
  let len = Bytes.length data in
  if len = 0 || len > 0xFFFF then Error `Bad_record_length
  else if i < 0 then Error `Negative_slot
  else if is_live p i then Error `Slot_already_live
  else begin
    let extra_slots = max 0 (i + 1 - slot_count p) in
    if not (ensure_room p ~extra_slots ~len) then Error `Page_full
    else begin
      if i >= slot_count p then begin
        for j = slot_count p to i do
          set_slot_count p (j + 1);
          set_slot p j ~off:0 ~len:0
        done
      end;
      let off = append_payload p data in
      set_slot p i ~off ~len;
      set_live p (live_records p + 1);
      Ok ()
    end
  end

let update p i data =
  let len = Bytes.length data in
  if len = 0 || len > 0xFFFF then Error `Bad_record_length
  else if not (is_live p i) then Error `Slot_not_live
  else begin
    let off, old_len = slot p i in
    if len <= old_len then begin
      Bytes.blit data 0 p off len;
      set_slot p i ~off ~len;
      Ok ()
    end
    else if
      (not (contiguous_room p ~extra_slots:0 ~len))
      && size p - header_size - (used_payload p - old_len) - (slot_entry_size * slot_count p)
         < len
    then
      (* Decided before the slot is touched: a compaction run for a record
         that then does not fit would move other records over the old
         copy, which a failed update must leave in place. *)
      Error `Page_full
    else begin
      (* Relocate: drop the old copy, append the new one. The room check
         above guarantees [ensure_room] succeeds, compacting if need be. *)
      set_slot p i ~off:0 ~len:0;
      let fits = ensure_room p ~extra_slots:0 ~len in
      assert fits;
      let off' = append_payload p data in
      set_slot p i ~off:off' ~len;
      Ok ()
    end
  end

let update_bytes p ~slot:i ~offset data =
  if not (is_live p i) then Error `Slot_not_live
  else begin
    let off, len = slot p i in
    let dlen = Bytes.length data in
    if offset < 0 || offset + dlen > len then Error `Range_outside_record
    else begin
      Bytes.blit data 0 p (off + offset) dlen;
      Ok ()
    end
  end

let delete p i =
  if not (is_live p i) then Error `Slot_not_live
  else begin
    set_slot p i ~off:0 ~len:0;
    set_live p (live_records p - 1);
    Ok ()
  end

let iter f p =
  for i = 0 to slot_count p - 1 do
    match read p i with Some data -> f i data | None -> ()
  done

let iter_in_place f p =
  let pos = ref (size p - slot_entry_size) in
  for i = 0 to slot_count p - 1 do
    let len = Bytes.get_uint16_le p (!pos + 2) in
    if len > 0 then f i (Bytes.get_uint16_le p !pos) len;
    pos := !pos - slot_entry_size
  done

let record_offset p i = if is_live p i then Bytes.get_uint16_le p (slot_pos p i) else -1

(* The key searches below are plain loops over the slot directory, here
   rather than in their callers: dune's dev profile compiles every
   library [-opaque], so a per-slot accessor called across modules is
   never inlined. Each live record of at least 8 bytes is keyed by its
   leading little-endian int64; shorter ones are skipped. *)

let key_at p pos = Int64.to_int (Bytes.get_int64_le p (Bytes.get_uint16_le p pos))

let nearest_int64 p ~from key ~below =
  let n = slot_count p in
  let best = ref (-1) and best_key = ref 0 and i = ref (max 0 from) in
  let pos = ref (slot_pos p !i) in
  while !i < n do
    if Bytes.get_uint16_le p (!pos + 2) >= 8 then begin
      let k = key_at p !pos in
      if k = key then begin
        best := !i;
        i := n
      end
      else if
        if below then k < key && (!best < 0 || k > !best_key)
        else k > key && (!best < 0 || k < !best_key)
      then begin
        best := !i;
        best_key := k
      end
    end;
    incr i;
    pos := !pos - slot_entry_size
  done;
  !best

let find_int64 p ~from key =
  let n = slot_count p in
  let i = ref (max 0 from) in
  let pos = ref (slot_pos p !i) in
  while !i < n && (Bytes.get_uint16_le p (!pos + 2) < 8 || key_at p !pos <> key) do
    incr i;
    pos := !pos - slot_entry_size
  done;
  if !i < n then !i else -1

(* Binary search of slots [lo, hi) for [key], treating slot order as key
   order. A probe that lands on a dead or short slot moves to the next
   keyed slot below [hi]; if there is none, the upper half is empty. Only
   a slot whose key equals [key] is ever returned. *)
let find_sorted_int64 p ~from key =
  let lo = ref (max 0 from) and hi = ref (slot_count p) and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let j = ref mid and pos = ref (slot_pos p mid) in
    while !j < !hi && Bytes.get_uint16_le p (!pos + 2) < 8 do
      incr j;
      pos := !pos - slot_entry_size
    done;
    if !j >= !hi then hi := mid
    else begin
      let k = key_at p !pos in
      if k = key then begin
        found := !j;
        lo := !hi
      end
      else if k < key then lo := !j + 1
      else hi := mid
    end
  done;
  !found

let equal_content a b =
  let slots p =
    let acc = ref [] in
    iter (fun i data -> acc := (i, data) :: !acc) p;
    List.sort compare !acc
  in
  slots a = slots b
