type t = {
  page_size : int;
  log_region_bytes : int;
  recovery_enabled : bool;
  selective_merge_threshold : float;
  wear_aware_allocation : bool;
  buffer_pages : int;
  spare_blocks : int;
  log_cache_bytes : int;
  channels : int;
  ways : int;
  queue_depth : int;
      (* device geometry: how many flash chips (channels x ways) back the
         engine, and how many operations each chip's queue holds before a
         submission stalls the host clock. 1 x 1 is the paper's serial
         chip. *)
}

let default =
  {
    page_size = 8192;
    log_region_bytes = 8192;
    recovery_enabled = true;
    selective_merge_threshold = 0.5;
    wear_aware_allocation = true;
    buffer_pages = 2560;
    spare_blocks = 0;
    log_cache_bytes = 256 * 1024;
    channels = 1;
    ways = 1;
    queue_depth = 64;
  }

let data_pages_per_eu t ~block_size = (block_size - t.log_region_bytes) / t.page_size
let log_sectors_per_eu t ~sector_size = t.log_region_bytes / sector_size

let validate t ~sector_size ~block_size =
  let check cond msg = if not cond then invalid_arg ("Ipl_config: " ^ msg) in
  check (t.page_size > 0 && t.page_size mod sector_size = 0)
    "page size must be a positive multiple of the flash sector size";
  check (block_size / sector_size <= 256)
    "an erase unit spans at most 256 sectors: the system log records an image's size and first \
     sector and the log's first sector in a byte each";
  check (t.log_region_bytes mod sector_size = 0)
    "log region must be a multiple of the flash sector size";
  check t.recovery_enabled "recovery_enabled must be true: every engine keeps a transaction log";
  check ((block_size - t.log_region_bytes) mod t.page_size = 0)
    "data region must be a multiple of the page size";
  check (data_pages_per_eu t ~block_size >= 1) "at least one data page per erase unit";
  check (log_sectors_per_eu t ~sector_size >= 1) "at least one log sector per erase unit";
  check (t.selective_merge_threshold >= 0.0 && t.selective_merge_threshold <= 1.0)
    "selective merge threshold must be in [0,1]";
  check (t.buffer_pages > 0) "buffer pool must hold at least one page";
  check (t.spare_blocks >= 0) "spare_blocks must be non-negative";
  check (t.log_cache_bytes >= 0) "log_cache_bytes must be non-negative";
  check (t.channels >= 1) "channels must be at least 1";
  check (t.ways >= 1) "ways must be at least 1";
  check (t.queue_depth >= 1) "queue_depth must be at least 1"
