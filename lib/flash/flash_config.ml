type t = {
  sector_size : int;
  phys_page_size : int;
  block_size : int;
  num_blocks : int;
  t_read_page : float;
  t_write_page : float;
  t_erase_block : float;
  max_erase_cycles : int;
  grow_bad_on_wear_out : bool;
  materialize : bool;
}

let default ?(num_blocks = 1024) ?(materialize = true) ?(grow_bad_on_wear_out = false) () =
  {
    sector_size = 512;
    phys_page_size = 2048;
    block_size = 128 * 1024;
    num_blocks;
    t_read_page = 80e-6;
    t_write_page = 200e-6;
    t_erase_block = 1.5e-3;
    max_erase_cycles = 100_000;
    grow_bad_on_wear_out;
    materialize;
  }

let sectors_per_page t = t.phys_page_size / t.sector_size
let sectors_per_block t = t.block_size / t.sector_size
let pages_per_block t = t.block_size / t.phys_page_size
let capacity_bytes t = t.block_size * t.num_blocks

let validate t =
  let check cond msg = if not cond then invalid_arg ("Flash_config: " ^ msg) in
  check (t.sector_size > 0) "sector_size must be positive";
  check (t.phys_page_size mod t.sector_size = 0) "page size not a multiple of sector size";
  check (t.block_size mod t.phys_page_size = 0) "block size not a multiple of page size";
  check (t.num_blocks > 0) "num_blocks must be positive";
  check (t.t_read_page >= 0.0 && t.t_write_page >= 0.0 && t.t_erase_block >= 0.0)
    "timings must be non-negative";
  check (t.max_erase_cycles > 0) "max_erase_cycles must be positive"
