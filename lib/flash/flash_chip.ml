type sector_state = Free | Valid | Invalid

exception Write_to_unerased of int
exception Out_of_range of int
exception Power_loss of int
exception Read_error of int
exception Program_error of int
exception Erase_error of int

type op =
  | Op_read of { sector : int; count : int }
  | Op_program of { sector : int; count : int }
  | Op_erase of { block : int }

type fault_action =
  | Proceed
  | Fail_stop
  | Tear of int
  | Flip_bit of int
  | Read_fault
  | Read_correctable
  | Program_fail
  | Erase_fail

type corrupt_error = Not_materialized | Sector_erased | Bad_offset

let corrupt_error_to_string = function
  | Not_materialized -> "chip does not materialize data (timing-only config)"
  | Sector_erased -> "sector is erased"
  | Bad_offset -> "offset outside the sector"

(* Buffers of erased blocks, for the next first program of any block
   that shares the list (the chips of one device). At most one buffer per
   erased block. *)
type spares = { mutable free : Bytes.t list }

type t = {
  config : Flash_config.t;
  state : Bytes.t;  (* one byte per sector: 0 = Free, 1 = Valid, 2 = Invalid *)
  blocks : Bytes.t array;
      (* block -> contents when materializing; empty until the block's
         first program after creation or an erase *)
  spares : spares;
  erase_counts : int array;
  bad : bool array;  (* grown / host-retired bad blocks *)
  mutable page_reads : int;
  mutable page_writes : int;
  mutable block_erases : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable read_faults : int;
  mutable corrected_reads : int;
  mutable program_failures : int;
  mutable erase_failures : int;
  mutable last_read_corrected : bool;
  clock : Float.Array.t;
      (* one cell, the simulated seconds spent: stored flat, so an
         operation's charge allocates nothing *)
  mutable fault_hook : (int -> op -> fault_action) option;
  mutable tracer : Obs.Tracer.t option;
  mutable ops : int;
  mutable dead : bool;
}

let create_with spares config =
  Flash_config.validate config;
  let num_sectors = Flash_config.sectors_per_block config * config.num_blocks in
  {
    config;
    state = Bytes.make num_sectors '\000';
    blocks = Array.make config.num_blocks Bytes.empty;
    spares;
    erase_counts = Array.make config.num_blocks 0;
    bad = Array.make config.num_blocks false;
    page_reads = 0;
    page_writes = 0;
    block_erases = 0;
    sectors_read = 0;
    sectors_written = 0;
    read_faults = 0;
    corrected_reads = 0;
    program_failures = 0;
    erase_failures = 0;
    last_read_corrected = false;
    clock = Float.Array.make 1 0.0;
    fault_hook = None;
    tracer = None;
    ops = 0;
    dead = false;
  }

let create config = create_with { free = [] } config

let create_shared n config =
  let spares = { free = [] } in
  Array.init n (fun _ -> create_with spares config)

let[@inline] elapsed t = Float.Array.get t.clock 0
let[@inline] charge t dt = Float.Array.set t.clock 0 (elapsed t +. dt)
let op_count t = t.ops
let is_dead t = t.dead

let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer

let set_fault_hook t hook =
  t.fault_hook <- hook;
  match hook with None -> t.dead <- false | Some _ -> ()

(* Every read/program/erase is numbered and offered to the installed fault
   hook. After a fail-stop the chip is dead: all further operations raise
   Power_loss until the hook is cleared. *)
let consult t op =
  if t.dead then raise (Power_loss t.ops);
  let idx = t.ops in
  t.ops <- idx + 1;
  match t.fault_hook with None -> Proceed | Some f -> f idx op

let die t =
  t.dead <- true;
  raise (Power_loss (t.ops - 1))

let config t = t.config
let num_sectors t = Bytes.length t.state

let check_sector t s = if s < 0 || s >= num_sectors t then raise (Out_of_range s)

let block_of_sector t s =
  check_sector t s;
  s / Flash_config.sectors_per_block t.config

let sector_of_block t b =
  if b < 0 || b >= t.config.num_blocks then raise (Out_of_range b);
  b * Flash_config.sectors_per_block t.config

let state_of_byte = function
  | '\000' -> Free
  | '\001' -> Valid
  | _ -> Invalid

let sector_state t s =
  check_sector t s;
  state_of_byte (Bytes.get t.state s)

(* Number of distinct physical pages covered by [count] sectors at [sector]. *)
let pages_touched t ~sector ~count =
  let spp = Flash_config.sectors_per_page t.config in
  let first = sector / spp and last = (sector + count - 1) / spp in
  last - first + 1

(* Contents of block [b] for a program: an erased block takes a spare
   buffer, refilled with 0xff, or a new one when there is none. *)
let programmable_block t b =
  let d = t.blocks.(b) in
  if Bytes.length d > 0 then d
  else begin
    let d =
      match t.spares.free with
      | d :: rest ->
          t.spares.free <- rest;
          Bytes.fill d 0 (Bytes.length d) '\xff';
          d
      | [] -> Bytes.make t.config.block_size '\xff'
    in
    t.blocks.(b) <- d;
    d
  end

let read_sectors_into t ~sector ~count dst =
  if count <= 0 then invalid_arg "Flash_chip.read_sectors: count must be positive";
  let ss = t.config.sector_size in
  if Bytes.length dst < count * ss then
    invalid_arg "Flash_chip.read_sectors_into: destination must hold at least count sectors";
  check_sector t sector;
  check_sector t (sector + count - 1);
  t.last_read_corrected <- false;
  (match consult t (Op_read { sector; count }) with
  | Fail_stop -> die t
  | Read_fault ->
      t.read_faults <- t.read_faults + 1;
      raise (Read_error sector)
  | Read_correctable ->
      (* On-chip ECC corrected the data: the read succeeds, but the host
         can observe the correction and scrub the weakening block. *)
      t.corrected_reads <- t.corrected_reads + 1;
      t.last_read_corrected <- true
  | Proceed | Tear _ | Flip_bit _ | Program_fail | Erase_fail -> ());
  let pages = pages_touched t ~sector ~count in
  t.page_reads <- t.page_reads + pages;
  t.sectors_read <- t.sectors_read + count;
  charge t (float_of_int pages *. t.config.t_read_page);
  (* One option check when tracing is off; the event is constructed only
     inside the [Some] branch. *)
  (match t.tracer with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ~time:(elapsed t) (Obs.Event.Read_sector { sector; count }));
  if not t.config.materialize then Bytes.fill dst 0 (count * ss) '\xff'
  else begin
    (* Copy run by run: a run of free sectors reads 0xff, a run of
       programmed sectors within one block is one blit. *)
    let spb = Flash_config.sectors_per_block t.config in
    let stop = sector + count in
    let rec copy s =
      if s < stop then begin
        let free = Bytes.get t.state s = '\000' in
        let limit = if free then stop else min stop (((s / spb) + 1) * spb) in
        let rec run_end e =
          if e < limit && (Bytes.get t.state e = '\000') = free then run_end (e + 1) else e
        in
        let e = run_end (s + 1) in
        let pos = (s - sector) * ss and len = (e - s) * ss in
        if free then Bytes.fill dst pos len '\xff'
        else Bytes.blit t.blocks.(s / spb) ((s mod spb) * ss) dst pos len;
        copy e
      end
    in
    copy sector
  end

let read_sectors t ~sector ~count =
  let out = Bytes.create (max 0 count * t.config.sector_size) in
  read_sectors_into t ~sector ~count out;
  out

let bump_wear t b = t.erase_counts.(b) <- t.erase_counts.(b) + 1

let write_sectors_from t ~sector ~count data =
  let ss = t.config.sector_size in
  if count <= 0 || count * ss > Bytes.length data then
    invalid_arg "Flash_chip.write_sectors_from: count must be positive and within the data";
  let len = count * ss in
  check_sector t sector;
  check_sector t (sector + count - 1);
  let b0 = sector / Flash_config.sectors_per_block t.config in
  let action = consult t (Op_program { sector; count }) in
  (match action with
  | Fail_stop -> die t
  | Program_fail ->
      (* The program operation reports failure; no sector changes state.
         Real controllers respond by relocating the block. *)
      t.program_failures <- t.program_failures + 1;
      raise (Program_error sector)
  | _ -> ());
  if t.bad.(b0) then begin
    t.program_failures <- t.program_failures + 1;
    raise (Program_error sector)
  end;
  for i = 0 to count - 1 do
    if Bytes.get t.state (sector + i) <> '\000' then raise (Write_to_unerased (sector + i))
  done;
  (* A torn program completes only the first [k] sectors before the power
     fails; the rest stay erased, as on a real interrupted multi-sector
     program. *)
  let programmed =
    match action with Tear k -> max 0 (min k count) | _ -> count
  in
  for i = 0 to programmed - 1 do
    Bytes.set t.state (sector + i) '\001'
  done;
  if t.config.materialize then begin
    (* One blit per block the programmed sectors touch. *)
    let spb = Flash_config.sectors_per_block t.config in
    let rec copy i =
      if i < programmed then begin
        let s = sector + i in
        let n = min (programmed - i) (spb - (s mod spb)) in
        Bytes.blit data (i * ss) (programmable_block t (s / spb)) ((s mod spb) * ss) (n * ss);
        copy (i + n)
      end
    in
    copy 0
  end;
  if programmed > 0 then begin
    let pages = pages_touched t ~sector ~count:programmed in
    t.page_writes <- t.page_writes + pages;
    t.sectors_written <- t.sectors_written + programmed;
    charge t (float_of_int pages *. t.config.t_write_page);
    match t.tracer with
    | None -> ()
    | Some tr ->
        Obs.Tracer.emit tr ~time:(elapsed t)
          (Obs.Event.Program_sector { sector; count = programmed })
  end;
  match action with
  | Tear _ -> die t
  | Flip_bit off when t.config.materialize ->
      (* Silent corruption: flip one bit of the just-programmed data. Only
         detectable later through the log-sector checksums. *)
      let off = ((off mod len) + len) mod len in
      let s = sector + (off / ss) in
      let spb = Flash_config.sectors_per_block t.config in
      let b = s / spb and boff = ((s mod spb) * ss) + (off mod ss) in
      let stored = t.blocks.(b) in
      Bytes.set stored boff (Char.chr (Char.code (Bytes.get stored boff) lxor 0x10))
  | _ -> ()

let write_sectors t ~sector data =
  let len = Bytes.length data and ss = t.config.sector_size in
  if len <= 0 || len mod ss <> 0 then
    invalid_arg "Flash_chip.write_sectors: length must be a positive multiple of sector size";
  write_sectors_from t ~sector ~count:(len / ss) data

let invalidate_sectors t ~sector ~count =
  if count <= 0 then invalid_arg "Flash_chip.invalidate_sectors: count must be positive";
  check_sector t sector;
  check_sector t (sector + count - 1);
  for i = 0 to count - 1 do
    if Bytes.get t.state (sector + i) = '\001' then Bytes.set t.state (sector + i) '\002'
  done

let erase_block t b =
  if b < 0 || b >= t.config.num_blocks then raise (Out_of_range b);
  (match consult t (Op_erase { block = b }) with
  | Fail_stop | Tear _ -> die t
  | Erase_fail ->
      t.erase_failures <- t.erase_failures + 1;
      raise (Erase_error b)
  | Proceed | Flip_bit _ | Read_fault | Read_correctable | Program_fail -> ());
  if t.bad.(b) then begin
    t.erase_failures <- t.erase_failures + 1;
    raise (Erase_error b)
  end;
  if t.config.grow_bad_on_wear_out && t.erase_counts.(b) + 1 > t.config.max_erase_cycles
  then begin
    (* The block's endurance is spent: the erase fails and the block
       becomes a grown bad block. Nothing was erased; stored data stays
       readable, matching how worn NAND actually fails. *)
    t.bad.(b) <- true;
    t.erase_failures <- t.erase_failures + 1;
    raise (Erase_error b)
  end;
  let spb = Flash_config.sectors_per_block t.config in
  Bytes.fill t.state (b * spb) spb '\000';
  (* The erased block's buffer goes to the spares; its old bytes are
     overwritten with 0xff before any block uses it again. *)
  let d = t.blocks.(b) in
  if Bytes.length d > 0 then begin
    t.spares.free <- d :: t.spares.free;
    t.blocks.(b) <- Bytes.empty
  end;
  bump_wear t b;
  t.block_erases <- t.block_erases + 1;
  charge t t.config.t_erase_block;
  match t.tracer with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ~time:(elapsed t) (Obs.Event.Erase_block { block = b })

let corrupt_sector ?(offset = 0) t s =
  check_sector t s;
  if not t.config.materialize then begin
    (* Timing-only chips store no data to corrupt: warn and report it so
       fault campaigns degrade to a no-op instead of blowing up. *)
    Logs.warn (fun m ->
        m "Flash_chip.corrupt_sector: no-op, %s"
          (corrupt_error_to_string Not_materialized));
    Error Not_materialized
  end
  else if offset < 0 || offset >= t.config.sector_size then Error Bad_offset
  else if Bytes.get t.state s = '\000' then Error Sector_erased
  else begin
    let spb = Flash_config.sectors_per_block t.config in
    let b = s / spb and off = s mod spb in
    let data = t.blocks.(b) in
    let pos = (off * t.config.sector_size) + offset in
    Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x5A));
    Ok ()
  end

let stats t : Flash_stats.t =
  {
    page_reads = t.page_reads;
    page_writes = t.page_writes;
    block_erases = t.block_erases;
    sectors_read = t.sectors_read;
    sectors_written = t.sectors_written;
    elapsed = elapsed t;
    max_wear = Array.fold_left max 0 t.erase_counts;
    mean_wear =
      float_of_int (Array.fold_left ( + ) 0 t.erase_counts)
      /. float_of_int t.config.num_blocks;
    read_faults = t.read_faults;
    corrected_reads = t.corrected_reads;
    program_failures = t.program_failures;
    erase_failures = t.erase_failures;
    grown_bad_blocks = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.bad;
  }

let reset_stats t =
  t.page_reads <- 0;
  t.page_writes <- 0;
  t.block_erases <- 0;
  t.sectors_read <- 0;
  t.sectors_written <- 0;
  t.read_faults <- 0;
  t.corrected_reads <- 0;
  t.program_failures <- 0;
  t.erase_failures <- 0;
  Float.Array.set t.clock 0 0.0

let last_read_corrected t = t.last_read_corrected

let mark_bad t b =
  if b < 0 || b >= t.config.num_blocks then raise (Out_of_range b);
  t.bad.(b) <- true

let is_bad t b =
  if b < 0 || b >= t.config.num_blocks then raise (Out_of_range b);
  t.bad.(b)

let bad_blocks t =
  let acc = ref [] in
  for b = t.config.num_blocks - 1 downto 0 do
    if t.bad.(b) then acc := b :: !acc
  done;
  !acc

let clock t = t.clock
let advance_time t dt = charge t dt
let erase_count t b =
  if b < 0 || b >= t.config.num_blocks then raise (Out_of_range b);
  t.erase_counts.(b)

let erase_counts t = Array.copy t.erase_counts

let wear_histogram t =
  let h = Ipl_util.Histogram.create ~initial_size:t.config.num_blocks () in
  Array.iteri (fun b n -> Ipl_util.Histogram.add h b n) t.erase_counts;
  h

let live_sectors t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr n) t.state;
  !n

let free_sectors_in_block t b =
  let spb = Flash_config.sectors_per_block t.config in
  let base = sector_of_block t b in
  let n = ref 0 in
  for s = base to base + spb - 1 do
    if Bytes.get t.state s = '\000' then incr n
  done;
  !n
