(** Configuration of the in-page logging storage manager.

    The geometry follows Section 3.2 of the paper: every erase unit is
    split into a data-page region and a log region. With the defaults
    (128 KB erase units, 8 KB pages, 8 KB log region of sixteen 512-byte
    log sectors) an erase unit holds 15 data pages, exactly the paper's
    running example.

    Restart has no setting: it reads the system log and the flash's free
    state, and each erase unit's in-page log when an access needs it
    (see {!Ipl_storage.recover}). *)

type t = {
  page_size : int;  (** database page size, bytes (8 KB in the paper) *)
  log_region_bytes : int;
      (** bytes of a fresh erase unit's log region, and the least log
          any unit keeps: a merged unit's log also takes the space its
          packed images leave, up to three times this (DESIGN.md §22);
          the paper sweeps this from 8 KB to 64 KB (Figures 5 and 6) *)
  recovery_enabled : bool;
      (** always [true]: {!validate} rejects [false]. Every engine runs the
          Section 5 design (system-wide transaction log, commit-time log
          forcing, selective merges). The field is kept only because the
          frozen [perfbench] sources still set it *)
  selective_merge_threshold : float;
      (** tau: when the fraction of log records that would have to be
          carried over to the new erase unit (because their transactions
          are still active) exceeds this, the merge is abandoned and the
          incoming log sector goes to an overflow erase unit instead *)
  wear_aware_allocation : bool;
      (** allocate free erase units lowest-erase-count-first *)
  buffer_pages : int;  (** capacity of the buffer pool, in pages *)
  spare_blocks : int;
      (** size of the bad-block manager's spare pool: the last n blocks
          of the chip (see [lib/resilience]). Every data-area operation
          goes through the manager. With 0 (default) the pool is empty:
          failed reads are still retried, but the first failed program or
          erase degrades the device to read-only *)
  log_cache_bytes : int;
      (** DRAM budget for the per-erase-unit log-record cache that lets
          page reads and merges skip re-reading the flash log region
          (see [lib/cache]). LRU over erase units. 0 disables the cache,
          reproducing the uncached engine bit-for-bit *)
  channels : int;
      (** independent flash channels backing the engine (device geometry
          passed to {!Device.Flash_device.create}); 1 is the paper's
          serial chip *)
  ways : int;  (** chips per channel; total chips = channels x ways *)
  queue_depth : int;
      (** per-chip bound on outstanding asynchronous operations; a
          submission against a full queue stalls the simulated host
          clock to the earliest completion *)
}

val default : t
(** 8 KB pages, 8 KB log region, tau = 0.5, wear-aware allocation,
    2560 buffer pages (20 MB), 256 KB log-record cache. Commit batching is not a configuration
    field: see {!Ipl_engine.set_group_commit}. *)

val validate : t -> sector_size:int -> block_size:int -> unit
(** Check the configuration against a chip geometry: the log region and
    page size must tile the erase unit, at least one data page and
    one log sector must fit, and an erase unit spans at most 256
    sectors, so a page at most 255 (the system log stores image sizes
    and offsets in a byte). Raises [Invalid_argument] on a violation,
    and on [recovery_enabled = false]. *)

val data_pages_per_eu : t -> block_size:int -> int
val log_sectors_per_eu : t -> sector_size:int -> int
