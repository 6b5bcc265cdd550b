module Chip = Flash_sim.Flash_chip
module Dev = Device.Flash_device
module FConfig = Flash_sim.Flash_config

type persist_event =
  | P_remap of { virt : int; phys : int }
  | P_retire of { block : int }
  | P_degraded

exception Degraded
exception Uncorrectable of int

type t = {
  dev : Dev.t;
  spb : int;  (* sectors per erase unit *)
  map : (int, int) Hashtbl.t;  (* virtual block -> physical, non-identity only *)
  pool : (int, unit) Hashtbl.t;  (* spare physical blocks, lazily erased *)
  retired : (int, unit) Hashtbl.t;
  persist : persist_event -> unit;
  force : unit -> unit;
  mutable degraded : bool;
  mutable tracer : Obs.Tracer.t option;
  mutable c_read_retries : int;
  mutable c_uncorrectable : int;
  mutable c_remaps : int;
  mutable c_retired : int;
  mutable c_scrubs : int;
  mutable c_degradations : int;
}

(* Retries of a failed read beyond its first attempt. *)
let read_retries = 3

let create dev ~spares ~persist ~force () =
  let pool = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace pool b ()) spares;
  {
    dev;
    spb = FConfig.sectors_per_block (Dev.config dev);
    map = Hashtbl.create 16;
    pool;
    retired = Hashtbl.create 16;
    persist;
    force;
    degraded = false;
    tracer = None;
    c_read_retries = 0;
    c_uncorrectable = 0;
    c_remaps = 0;
    c_retired = 0;
    c_scrubs = 0;
    c_degradations = 0;
  }

let set_tracer t tracer = t.tracer <- tracer

let emit t ev =
  match t.tracer with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev) ev

let phys_block t v = match Hashtbl.find_opt t.map v with Some p -> p | None -> v

(* Translate a flat virtual sector address. Every caller operation must
   stay within one erase unit — the unit is the remapping granularity. *)
let translate t ~sector ~count =
  let v = sector / t.spb in
  if (sector + count - 1) / t.spb <> v then
    invalid_arg "Bbm: operation crosses an erase-unit boundary";
  (phys_block t v * t.spb) + (sector mod t.spb)

let retire_phys t p =
  t.persist (P_retire { block = p });
  Hashtbl.replace t.retired p ();
  Hashtbl.remove t.pool p;
  if not (Dev.is_bad t.dev p) then Dev.mark_bad t.dev p;
  t.c_retired <- t.c_retired + 1;
  emit t (Obs.Event.Retire { block = p })

(* The degradation point: a mandatory relocation found no usable spare.
   Persisted so the device stays read-only across restarts. *)
let degrade t =
  if not t.degraded then begin
    t.persist P_degraded;
    t.force ();
    t.degraded <- true;
    t.c_degradations <- t.c_degradations + 1;
    emit t Obs.Event.Degraded
  end;
  raise Degraded

(* Take the least-worn spare (wear-aware allocation doubles as wear
   leveling: blocks returned to the pool by scrubs rotate back in by wear
   order). When the device has more than one channel, spares on the same
   channel as [near] (the block being replaced) are preferred so a
   relocation's copy traffic stays channel-local; on a single-channel
   device every spare is "near" and the choice is unchanged. Pool blocks
   are erased lazily here, so crash leftovers and scrub returns need no
   eager cleanup; one that will not erase is retired and the next
   candidate tried. *)
let rec alloc_spare ?near ~cls t =
  let wear = Dev.erase_count t.dev in
  let want_chan = Option.map (Dev.channel_of_block t.dev) near in
  let pick pred =
    Hashtbl.fold
      (fun b () acc ->
        if not (pred b) then acc
        else
          match acc with Some b' when wear b' <= wear b -> acc | _ -> Some b)
      t.pool None
  in
  let best =
    match want_chan with
    | Some c -> (
        match pick (fun b -> Dev.channel_of_block t.dev b = c) with
        | Some _ as r -> r
        | None -> pick (fun _ -> true))
    | None -> pick (fun _ -> true)
  in
  match best with
  | None -> None
  | Some b ->
      Hashtbl.remove t.pool b;
      if Dev.is_bad t.dev b then begin
        retire_phys t b;
        alloc_spare ?near ~cls t
      end
      else if Dev.free_sectors_in_block t.dev b < t.spb then (
        match Dev.erase_block ~cls t.dev b with
        | () -> Some b
        | exception Chip.Erase_error _ ->
            retire_phys t b;
            alloc_spare ?near ~cls t)
      else Some b

(* One failed read attempt of virtual sector [virt_sector]: count a
   retry, or give up once [read_retries] retries beyond the first attempt
   are spent. *)
let note_read_error t ~virt_sector attempt =
  if attempt > read_retries then begin
    t.c_uncorrectable <- t.c_uncorrectable + 1;
    raise (Uncorrectable virt_sector)
  end;
  t.c_read_retries <- t.c_read_retries + 1;
  emit t (Obs.Event.Read_retry { sector = virt_sector; attempt })

(* Bounded-retry read into [dst]. With [publish] the read is a
   fire-and-forget background read ({!Dev.publish_read_into}): execution
   is eager, so the data (or the failure) is there at submission. *)
let rec read_retry t ~publish ?cls ~phys_sector ~count ~virt_sector dst attempt =
  match
    if publish then Dev.publish_read_into t.dev ~cls:Dev.Merge_io ~sector:phys_sector ~count dst
    else Dev.read_sectors_into ?cls t.dev ~sector:phys_sector ~count dst
  with
  | () -> ()
  | exception Chip.Read_error _ ->
      note_read_error t ~virt_sector attempt;
      read_retry t ~publish ?cls ~phys_sector ~count ~virt_sector dst (attempt + 1)

let rec submit_read_retry t ~cls ~phys_sector ~count ~virt_sector dst attempt =
  match Dev.submit_read_into t.dev ~cls ~sector:phys_sector ~count dst with
  | tag -> tag
  | exception Chip.Read_error _ ->
      note_read_error t ~virt_sector attempt;
      submit_read_retry t ~cls ~phys_sector ~count ~virt_sector dst (attempt + 1)

(* Copy every programmed sector of [from_phys] onto the erased [to_phys],
   preserving Free holes and Invalid marks exactly: Invalid sectors still
   hold stale-but-readable data that recovery depends on, and Free data
   slots must stay programmable. Each run of programmed sectors passes
   through the front of one block-long buffer. *)
let copy_block t ~cls ~from_phys ~to_phys =
  let src = from_phys * t.spb and dst = to_phys * t.spb in
  let data = Bytes.create (t.spb * (Dev.config t.dev).FConfig.sector_size) in
  let o = ref 0 in
  while !o < t.spb do
    if Dev.sector_state t.dev (src + !o) = Chip.Free then incr o
    else begin
      let start = !o in
      while !o < t.spb && Dev.sector_state t.dev (src + !o) <> Chip.Free do
        incr o
      done;
      let count = !o - start in
      read_retry t ~publish:false ~cls ~phys_sector:(src + start) ~count
        ~virt_sector:(src + start) data 1;
      Dev.write_sectors_from ~cls t.dev ~sector:(dst + start) ~count data;
      for i = start to !o - 1 do
        if Dev.sector_state t.dev (src + i) = Chip.Invalid then
          Dev.invalidate_sectors t.dev ~sector:(dst + i) ~count:1
      done
    end
  done

(* Move virtual unit [virt] off [old_phys] onto a spare, optionally
   completing a failed program ([pending] = offset within the unit plus
   the data) on the new block. Crash ordering: copy first, then persist
   the remap (and retirement) and force, then switch the in-memory map.
   Before the force the old mapping is fully intact and the half-copied
   spare is unreferenced (lazily erased on its next allocation); after it
   the new mapping includes the completed program. Returns [None] when no
   usable spare exists — the caller decides whether that degrades the
   device. *)
let rec relocate t ~cls ~virt ~old_phys ~pending ~retire_old =
  match alloc_spare ~near:old_phys ~cls t with
  | None -> None
  | Some np -> (
      match
        copy_block t ~cls ~from_phys:old_phys ~to_phys:np;
        match pending with
        | None -> ()
        | Some (off, count, data) ->
            Dev.write_sectors_from ~cls t.dev ~sector:((np * t.spb) + off) ~count data
      with
      | () ->
          t.persist (P_remap { virt; phys = np });
          if retire_old then retire_phys t old_phys;
          t.force ();
          if np = virt then Hashtbl.remove t.map virt else Hashtbl.replace t.map virt np;
          t.c_remaps <- t.c_remaps + 1;
          emit t (Obs.Event.Remap { virt; from_phys = old_phys; to_phys = np });
          Some np
      | exception Chip.Program_error _ ->
          (* The spare failed mid-copy: retire it too and try another. *)
          retire_phys t np;
          relocate t ~cls ~virt ~old_phys ~pending ~retire_old)

(* Preventive relocation of a weakening unit after a correctable read.
   Never degrades the device: with no spare to hand the scrub is simply
   skipped. The old block returns to the pool — it still works, it is
   merely suspect — giving natural wear rotation. *)
let scrub t v =
  let old_p = phys_block t v in
  match relocate t ~cls:Dev.Scrub ~virt:v ~old_phys:old_p ~pending:None ~retire_old:false with
  | Some np ->
      Hashtbl.replace t.pool old_p ();
      t.c_scrubs <- t.c_scrubs + 1;
      emit t (Obs.Event.Scrub { virt = v; to_phys = np })
  | None ->
      Logs.debug (fun m -> m "Bbm: no spare available, scrub of unit %d skipped" v)

let check_writable t = if t.degraded then raise Degraded

let scrub_if_corrected t sector =
  if Dev.last_read_corrected t.dev then scrub t (sector / t.spb)

(* A [Merge_io] read is a background relocation read: it is published,
   never waited for, so a merge does not block the host clock on it. *)
let read_sectors_into ?cls t ~sector ~count dst =
  let ps = translate t ~sector ~count in
  let publish = match cls with Some Dev.Merge_io -> true | _ -> false in
  read_retry t ~publish ?cls ~phys_sector:ps ~count ~virt_sector:sector dst 1;
  scrub_if_corrected t sector

let read_sectors ?cls t ~sector ~count =
  let data = Bytes.create (max 0 count * (Dev.config t.dev).FConfig.sector_size) in
  read_sectors_into ?cls t ~sector ~count data;
  data

(* Asynchronous read: the retries and the scrub run at submission, where
   the eager device gives the chip's answer. *)
let submit_read_sectors_into t ~cls ~sector ~count dst =
  let ps = translate t ~sector ~count in
  let tag = submit_read_retry t ~cls ~phys_sector:ps ~count ~virt_sector:sector dst 1 in
  scrub_if_corrected t sector;
  tag

(* A failed program always relocates at merge priority: completing the
   interrupted program is on the caller's critical path whatever class
   the original write carried. *)
let handle_program_error t ~sector ~ps ~count data =
  let virt = sector / t.spb in
  match
    relocate t ~cls:Dev.Merge_io ~virt ~old_phys:(ps / t.spb)
      ~pending:(Some (ps mod t.spb, count, data))
      ~retire_old:true
  with
  | Some _ -> ()
  | None -> degrade t

let write_sectors ?(cls = Dev.Foreground) t ~sector data =
  check_writable t;
  let ss = (Dev.config t.dev).FConfig.sector_size in
  let count = max 1 (Bytes.length data / ss) in
  let ps = translate t ~sector ~count in
  try Dev.write_sectors_from ~cls t.dev ~sector:ps ~count data
  with Chip.Program_error _ -> handle_program_error t ~sector ~ps ~count data

(* Asynchronous variant: the program executes now (so a Program_error is
   handled here exactly as in the sync path) but its completion time is
   settled by the caller's next barrier/await. *)
let submit_write_sectors_from t ~cls ~sector ~count data =
  check_writable t;
  let ps = translate t ~sector ~count in
  try Dev.publish_write_from t.dev ~cls ~sector:ps ~count data
  with Chip.Program_error _ -> handle_program_error t ~sector ~ps ~count data

let submit_write_sectors t ~cls ~sector data =
  let ss = (Dev.config t.dev).FConfig.sector_size in
  submit_write_sectors_from t ~cls ~sector ~count:(max 1 (Bytes.length data / ss)) data

(* The block would not erase (worn out or transient failure turned
   permanent): its content is garbage to the caller, so no copy is
   needed — retire it and point the unit at a fresh spare. *)
let handle_erase_error t ~cls v p =
  retire_phys t p;
  match alloc_spare ~near:p ~cls t with
  | Some np ->
      t.persist (P_remap { virt = v; phys = np });
      t.force ();
      if np = v then Hashtbl.remove t.map v else Hashtbl.replace t.map v np;
      t.c_remaps <- t.c_remaps + 1;
      emit t (Obs.Event.Remap { virt = v; from_phys = p; to_phys = np })
  | None -> degrade t

let erase_block ?(cls = Dev.Foreground) t v =
  check_writable t;
  let p = phys_block t v in
  try Dev.erase_block ~cls t.dev p with Chip.Erase_error _ -> handle_erase_error t ~cls v p

let submit_erase_block t ~cls v =
  check_writable t;
  let p = phys_block t v in
  try Dev.publish_erase t.dev ~cls p
  with Chip.Erase_error _ -> handle_erase_error t ~cls v p

let invalidate_sectors t ~sector ~count =
  let ps = translate t ~sector ~count in
  Dev.invalidate_sectors t.dev ~sector:ps ~count

let sector_state t s = Dev.sector_state t.dev (translate t ~sector:s ~count:1)
let free_sectors_in_block t v = Dev.free_sectors_in_block t.dev (phys_block t v)
let erase_count t v = Dev.erase_count t.dev (phys_block t v)
let device t = t.dev
let degraded t = t.degraded
let spares_left t = Hashtbl.length t.pool

let remap_table t =
  List.sort compare (Hashtbl.fold (fun v p acc -> (v, p) :: acc) t.map [])

let retired_list t =
  List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) t.retired [])

let snapshot_events t =
  let evs = Hashtbl.fold (fun v p acc -> P_remap { virt = v; phys = p } :: acc) t.map [] in
  let evs = Hashtbl.fold (fun b () acc -> P_retire { block = b } :: acc) t.retired evs in
  if t.degraded then evs @ [ P_degraded ] else evs

let recover dev ~spares ~persist ~force ~events () =
  let t = create dev ~spares ~persist ~force () in
  List.iter
    (function
      | P_remap { virt; phys } ->
          let old_p = phys_block t virt in
          if phys = virt then Hashtbl.remove t.map virt
          else Hashtbl.replace t.map virt phys;
          Hashtbl.remove t.pool phys;
          (* The displaced block rejoins the pool unless a later (or
             earlier) Retire event removes it again. *)
          if old_p <> phys && not (Hashtbl.mem t.retired old_p) then
            Hashtbl.replace t.pool old_p ()
      | P_retire { block } ->
          Hashtbl.replace t.retired block ();
          Hashtbl.remove t.pool block;
          if not (Dev.is_bad dev block) then Dev.mark_bad dev block
      | P_degraded -> t.degraded <- true)
    events;
  t

type stats = {
  read_retries : int;
  uncorrectable_reads : int;
  remaps : int;
  retired_blocks : int;
  scrubs : int;
  degradations : int;
  spares_left : int;
}

let stats t =
  {
    read_retries = t.c_read_retries;
    uncorrectable_reads = t.c_uncorrectable;
    remaps = t.c_remaps;
    retired_blocks = t.c_retired;
    scrubs = t.c_scrubs;
    degradations = t.c_degradations;
    spares_left = Hashtbl.length t.pool;
  }

module Stats = struct
  type t = stats

  let fields (t : t) =
    [
      ("read_retries", t.read_retries);
      ("uncorrectable_reads", t.uncorrectable_reads);
      ("remaps", t.remaps);
      ("retired_blocks", t.retired_blocks);
      ("scrubs", t.scrubs);
      ("degradations", t.degradations);
      ("spares_left", t.spares_left);
    ]

  let pp ppf t =
    Format.pp_print_string ppf "resilience:";
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) (fields t)

  let to_json t =
    Ipl_util.Json.Obj (List.map (fun (k, v) -> (k, Ipl_util.Json.Int v)) (fields t))
end
