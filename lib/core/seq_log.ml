module Dev = Device.Flash_device
module Config = Flash_sim.Flash_config

(* Sector format: used:u16 (bytes of payload), crc:u32 (CRC-32 of the
   payload), then records, each [len:u16][bytes]. 0xffff in the "used"
   field (erased flash) marks an unwritten sector. The checksum lets
   recovery detect a torn or bit-flipped sector and discard its records
   instead of replaying garbage. *)

type t = {
  dev : Dev.t;
  first_block : int;
  num_blocks : int;
  sector_size : int;
  first_sector : int;
  sectors_per_block : int;
  total_sectors : int;
  buf : Buffer.t;  (* payload of the sector being assembled *)
  mutable next_sector : int;  (* index within the region *)
  mutable pending : Dev.tag list;  (* published, not yet settled *)
}

exception Record_too_large of int

let header_size = 6

let make dev ~first_block ~num_blocks =
  if num_blocks <= 0 then invalid_arg "Seq_log: need at least one block";
  let c = Dev.config dev in
  let spb = Config.sectors_per_block c in
  {
    dev;
    first_block;
    num_blocks;
    sector_size = c.Config.sector_size;
    first_sector = Dev.sector_of_block dev first_block;
    sectors_per_block = spb;
    total_sectors = spb * num_blocks;
    buf = Buffer.create c.Config.sector_size;
    next_sector = 0;
    pending = [];
  }

(* Logical append index -> physical sector: round-robin across the
   region's blocks (index i lives in block [i mod num_blocks] at offset
   [i / num_blocks]). Since device blocks stripe across chips,
   consecutive forces program different chips instead of hammering the
   region's first block — the log's force traffic spreads over the
   channels like everything else. Recovery scans the same index order,
   so the forward scan for the append position is unchanged. *)
let sector_addr t i =
  t.first_sector
  + (i mod t.num_blocks * t.sectors_per_block)
  + (i / t.num_blocks)

let erase_region t =
  for b = t.first_block to t.first_block + t.num_blocks - 1 do
    Dev.erase_block t.dev b
  done

let create dev ~first_block ~num_blocks =
  let t = make dev ~first_block ~num_blocks in
  erase_region t;
  t

let sector_used t i =
  Dev.sector_state t.dev (sector_addr t i) <> Flash_sim.Flash_chip.Free

let recover dev ~first_block ~num_blocks =
  let t = make dev ~first_block ~num_blocks in
  let rec scan i = if i < t.total_sectors && sector_used t i then scan (i + 1) else i in
  t.next_sector <- scan 0;
  t

(* Publish the buffered records: assemble and submit the sector program
   without waiting for it. The caller owes a [settle] (or a device-wide
   barrier) before treating the records as durable; splitting the two
   lets a commit publish its log sectors on different chips and pay for
   them all with a single wait. *)
let publish t =
  if Buffer.length t.buf > 0 then begin
    let payload = Buffer.to_bytes t.buf in
    let sector = Bytes.make t.sector_size '\xff' in
    Bytes.set_uint16_le sector 0 (Bytes.length payload);
    Bytes.blit payload 0 sector header_size (Bytes.length payload);
    let crc = Ipl_util.Checksum.crc32 sector ~pos:header_size ~len:(Bytes.length payload) in
    Bytes.set_int32_le sector 2 (Int32.of_int crc);
    let tag =
      Dev.submit_write ~cls:Dev.Log_flush t.dev ~sector:(sector_addr t t.next_sector)
        sector
    in
    t.pending <- tag :: t.pending;
    t.next_sector <- t.next_sector + 1;
    Buffer.clear t.buf
  end

(* Wait out every published-but-unsettled sector program of THIS log —
   the precise durability wait. Unlike a device-wide barrier it does not
   stall on unrelated in-flight traffic, so the write-ahead wait for
   published begin records costs only their own program time. *)
let settle t =
  List.iter (Dev.await t.dev) t.pending;
  t.pending <- []

let force t =
  publish t;
  settle t

let payload_capacity t = t.sector_size - header_size

(* A record that does not fit the buffered sector forces it first; the
   region is full when no sector is left to take the eventual force. *)
let append t record =
  let need = 2 + Bytes.length record in
  if need > payload_capacity t then raise (Record_too_large (Bytes.length record));
  if Buffer.length t.buf + need > payload_capacity t && t.next_sector < t.total_sectors then
    force t;
  if t.next_sector >= t.total_sectors then `Full
  else begin
    Buffer.add_uint16_le t.buf (Bytes.length record);
    Buffer.add_bytes t.buf record;
    `Ok
  end

let reset t =
  Buffer.clear t.buf;
  (* The erase makes durability of the old contents moot; drop the tags
     (awaiting a passed completion would be a no-op anyway). *)
  t.pending <- [];
  let rec written i = i < t.total_sectors && (sector_used t i || written (i + 1)) in
  if written 0 then erase_region t;
  t.next_sector <- 0

(* Decode one sector defensively: a corrupt sector (bad checksum, lying
   length fields) contributes nothing instead of raising. Returns the
   records in order, or None when the sector fails validation. *)
let decode_sector t sector =
  let used = Bytes.get_uint16_le sector 0 in
  if used = 0xFFFF || used > t.sector_size - header_size then None
  else begin
    let stored = Int32.to_int (Bytes.get_int32_le sector 2) land 0xFFFFFFFF in
    let actual = Ipl_util.Checksum.crc32 sector ~pos:header_size ~len:used in
    if stored <> actual then None
    else begin
      let fin = header_size + used in
      let out = ref [] in
      let pos = ref header_size in
      let ok = ref true in
      while !ok && !pos + 2 <= fin do
        let len = Bytes.get_uint16_le sector !pos in
        if !pos + 2 + len > fin then ok := false (* truncated record: discard the rest *)
        else begin
          out := Bytes.sub sector (!pos + 2) len :: !out;
          pos := !pos + 2 + len
        end
      done;
      Some (List.rev !out)
    end
  end

(* Torn or bit-flipped sectors contribute no records. *)
let sector_records t i =
  if not (sector_used t i) then []
  else
    match decode_sector t (Dev.read_sectors t.dev ~sector:(sector_addr t i) ~count:1) with
    | Some rs -> rs
    | None -> []

let records ?first t =
  match first with
  | None -> List.concat (List.init t.next_sector (sector_records t))
  | Some first ->
      let rest = List.init (max 0 (t.next_sector - 1)) (fun i -> sector_records t (i + 1)) in
      first @ List.concat rest
let first_records t = if t.next_sector = 0 then [] else sector_records t 0

(* ------------------------------------------------------------------ *)
(* Buffered-append rollback (exception-safe callers)                   *)

type mark = { m_next : int; m_buf : int }

let mark t = { m_next = t.next_sector; m_buf = Buffer.length t.buf }

let rollback t m =
  if t.next_sector <> m.m_next || Buffer.length t.buf < m.m_buf then false
  else begin
    Buffer.truncate t.buf m.m_buf;
    true
  end

let sectors_written t = t.next_sector
let sector_capacity t = t.total_sectors
