(* The frame layer: the buffer pool's fetch and flush, the one frame
   rebuild, appending a record to a frame's log, and read-ahead. *)
open Engine_state
module Chip = Flash_sim.Flash_chip
module Bbm = Resilience.Bbm
module Pool = Bufmgr.Buffer_pool

(* After a flush that failed part-way through a unit's sectors, the
   frames whose records all reached flash are emptied and the frame the
   failure cut keeps only the records still owed, so every frame's page
   stays its flash image plus its in-memory log. *)
let rec keep_unflushed flushed = function
  | [] -> ()
  | (_, frame) :: rest ->
      let n = Log_sector.count frame.log in
      if flushed >= n then begin
        Log_sector.clear frame.log;
        keep_unflushed (flushed - n) rest
      end
      else if flushed > 0 then begin
        let owed = List.filteri (fun i _ -> i >= flushed) (Log_sector.records frame.log) in
        Log_sector.clear frame.log;
        List.iter
          (fun r ->
            match Log_sector.add frame.log r with
            | `Added -> ()
            | `Full -> assert false (* a subset of what the sector held *))
          owed
      end

let records_of frames = List.concat_map (fun (_, frame) -> Log_sector.records frame.log) frames

let rec in_unit store eu = function
  | [] -> true
  | (pid, _) :: rest -> Ipl_storage.eu_of_page store pid = eu && in_unit store eu rest

(* The partner of a unit about to merge: the first unit of [later], in
   order of first appearance, whose own frames there bring it due too.
   Returns those frames, their records and the other frames of
   [later]. Only a unit with a full log is grouped and weighed. *)
let partner store later =
  let rec find seen = function
    | [] -> None
    | (pid, frame) :: rest ->
        let eu = Ipl_storage.eu_of_page store pid in
        if Log_sector.is_empty frame.log || List.mem eu seen then find seen rest
        else if not (Ipl_storage.log_full store ~page:pid) then find (eu :: seen) rest
        else
          let theirs, others =
            List.partition (fun (p, _) -> Ipl_storage.eu_of_page store p = eu) later
          in
          let records = records_of theirs in
          if Ipl_storage.merge_due store records then Some (theirs, records, others)
          else find (eu :: seen) rest
  in
  find [] later

let clear frames = List.iter (fun (_, frame) -> Log_sector.clear frame.log) frames

(* A flush of [frames] failed with [e] after [flushed] of their records
   reached flash. *)
let owed frames flushed e =
  let bt = Printexc.get_raw_backtrace () in
  keep_unflushed flushed frames;
  Printexc.raise_with_backtrace e bt

(* [sectors] hold the records of [frames], pages of the unit hosting
   [page], in order; [flushed] of those records are on flash already. A
   sector that would merge that unit, U, while a later group of the
   batch, in [later], would merge its unit V too merges U and V as one
   pair instead, consuming the rest of U's sectors and V's whole group:
   after the pair, a page of U may sit in V's new unit. Returns the
   frames of [later] still to flush. *)
let rec flush_sectors store ~page ~later frames flushed = function
  | [] ->
      clear frames;
      later
  | sector :: sectors -> (
      let pair =
        if
          later <> []
          && Ipl_storage.log_full store ~page
          && Ipl_storage.merge_due store (Log_sector.records sector)
        then partner store later
        else None
      in
      match pair with
      | Some (theirs, their_records, later) ->
          (match
             Ipl_storage.merge_pair store
               (List.concat_map Log_sector.records (sector :: sectors))
               their_records
           with
          | () -> ()
          | exception e -> owed frames flushed e);
          clear frames;
          clear theirs;
          later
      | None ->
          (match Ipl_storage.flush_log store sector with
          | () -> ()
          | exception e -> owed frames flushed e);
          flush_sectors store ~page ~later frames (flushed + Log_sector.count sector) sectors)

(* Group [frames] by erase unit, in order of first appearance, and flush
   each group's records, in arrival order, in as few sectors as they fit.
   A single merge during the flush moves a unit's pages together, and a
   pair merge consumes both units' groups, so units looked up before a
   merge still group the frames that follow. *)
let rec flush_by_unit store ~sector_size = function
  | [] -> ()
  | (_, frame) :: rest when Log_sector.is_empty frame.log ->
      flush_by_unit store ~sector_size rest
  | (page, _) :: _ as frames ->
      let eu = Ipl_storage.eu_of_page store page in
      let mine, rest =
        if in_unit store eu frames then (frames, [])
        else List.partition (fun (p, _) -> Ipl_storage.eu_of_page store p = eu) frames
      in
      let sectors =
        match mine with
        | [ (_, frame) ] -> [ frame.log ] (* one frame's log is one sector already *)
        | _ -> Log_sector.pack ~capacity:sector_size (records_of mine)
      in
      flush_by_unit store ~sector_size (flush_sectors store ~page ~later:rest mine 0 sectors)

(* The one flush path: a commit's or checkpoint's whole batch of dirty
   frames (oldest-dirtied first), an eviction's one frame, or a frame
   whose in-memory log sector is full. Write-ahead rule for
   transaction-status records: before any of a transaction's
   physiological records reach flash, its begin record must be durable,
   or a crash would leave records whose status lookup defaults to
   "committed"; one wait covers the batch. [Trx_log.log_begin]
   publishes every begin record, so the wait settles the system log
   without publishing the mapping events buffered since, which would
   cost a sector per flush. A unit's log region is
   shared by all its pages, so the pages of one unit that a commit
   dirtied share its sectors instead of taking one each. A frame's log
   is cleared only once its records are on flash. *)
let flush_frames meta store ~sector_size batch =
  if List.exists (fun (_, frame) -> Log_sector.has_user_txn frame.log) batch then
    Meta_log.settle meta;
  flush_by_unit store ~sector_size batch

(* A miss in a full pool re-reads the new page straight into the frame
   it just evicted, reusing both its page bytes and its log sector. An
   evicted frame is clean, and a clean frame's log is empty: a write-back
   or commit clears the log it flushes. The one exception is a flush that
   failed mid-update, which can leave records in a frame never marked
   dirty. Such a frame is dropped and the new page gets a fresh one, so
   the stale records cannot reach another page. *)
let fetch_frame store ~log_bytes pid evicted =
  match evicted with
  | Some frame when Log_sector.is_empty frame.log ->
      Ipl_storage.read_page_into store pid frame.page;
      frame
  | Some _ | None ->
      {
        page = Ipl_storage.read_page store pid;
        log = Log_sector.create ~capacity:log_bytes;
      }

let create_pool config meta store ~sector_size =
  let pool =
    Pool.create ~capacity:config.Ipl_config.buffer_pages
      ~fetch:(fetch_frame store ~log_bytes:sector_size)
      ~write_back:(flush_frames meta store ~sector_size)
      ()
  in
  (* A merge may program a page straight from its frame when the frame
     owes flash nothing: its page is then its stored image plus its live
     flash records (see [rebuild_frame]). [Pool.find] leaves recency
     alone, so a merge does not reorder the pool. *)
  Ipl_storage.set_buffered store (fun pid ->
      match Pool.find pool pid with
      | Some frame when Log_sector.is_empty frame.log -> Some frame.page
      | Some _ | None -> None);
  pool

(* The one frame rebuild: [load] puts the page's stored image with its
   live flash records into the frame's bytes, and the frame's buffered
   records are replayed on top, so the frame is again its flash state
   plus its in-memory log. An abort loads images it read as one batch;
   a failed flush re-reads its one page in place. *)
let rebuild_frame frame ~load =
  load frame.page;
  Log_record.replay frame.page (Log_sector.records frame.log)

(* A record whose frame's log is full flushes that log first. If the
   flush fails, the mutation already applied to the page cannot be
   logged, so the frame is rebuilt without it, keeping the invariant that
   the page is its flash state plus its in-memory log. On a dead chip,
   where the re-read itself fails, the frame may keep the stored image
   without its log applied: every later operation fails too, and restart
   reads only flash. *)
let add_record t frame ~page record =
  match Log_sector.add frame.log record with
  | `Added -> ()
  | `Full -> (
      (try flush_frames t.meta t.store ~sector_size:(sector_size t) [ (page, frame) ]
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         (try rebuild_frame frame ~load:(Ipl_storage.read_page_into t.store page) with
         | Chip.Power_loss _ | Chip.Read_error _ | Bbm.Uncorrectable _ -> ());
         Printexc.raise_with_backtrace e bt);
      match Log_sector.add frame.log record with
      | `Added -> ()
      | `Full -> assert false (* empty sector accepts any record Log_sector admits *))

(* Batched read-ahead: fetch the missing pages of the batch through the
   storage manager's parallel read path and install them as clean
   frames. Pages already resident, unknown ids and duplicates are
   skipped — resident members are bumped to most-recently-used first, so
   the batch's own preloads cannot evict them before they are used. The
   engine's read path is unchanged — a later [read] of a prefetched page
   is simply a pool hit. *)
let prefetch_start t pids =
  let seen = Hashtbl.create 16 in
  let wanted =
    List.filter
      (fun pid ->
        (not (Hashtbl.mem seen pid))
        && begin
             Hashtbl.add seen pid ();
             Ipl_storage.page_exists t.store pid
             &&
             if Pool.contains t.pool pid then begin
               Pool.promote t.pool pid;
               false
             end
             else true
           end)
      pids
  in
  Ipl_storage.read_pages_start t.store wanted

let prefetch_finish t token =
  List.iter
    (fun (pid, page) ->
      Pool.preload t.pool pid { page; log = Log_sector.create ~capacity:(sector_size t) })
    (Ipl_storage.read_pages_finish t.store token)
