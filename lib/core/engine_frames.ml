(* The frame layer: the buffer pool's fetch and flush, the one frame
   rebuild, appending a record to a frame's log, and read-ahead. *)
open Engine_state
module Chip = Flash_sim.Flash_chip
module Bbm = Resilience.Bbm
module Pool = Bufmgr.Buffer_pool

(* The one flush path: a commit's or checkpoint's whole batch of dirty
   frames (oldest-dirtied first), an eviction's one frame, or a frame
   whose in-memory log sector is full. Write-ahead rule for
   transaction-status records: before any of a transaction's
   physiological records reach flash, its begin record must be durable,
   or a crash would leave records whose status lookup defaults to
   "committed"; one wait covers the batch. [Trx_log.log_begin]
   publishes every begin record, so the wait settles the system log
   without publishing the mapping events buffered since, which would
   cost a sector per flush. The storage manager then writes the frames'
   logs and clears each one whose records are on flash. *)
let flush_frames meta store batch =
  if List.exists (fun (_, frame) -> Log_sector.has_user_txn frame.log) batch then
    Meta_log.settle meta;
  Ipl_storage.flush store (List.map (fun (page, frame) -> (page, frame.log)) batch)

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
      ~write_back:(flush_frames meta store)
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
      (try flush_frames t.meta t.store [ (page, frame) ]
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
