(** Geometry and timing parameters of a simulated NAND flash chip.

    Defaults model the Samsung K9WAG08U1A SLC NAND used in the paper
    (Table 1): 2 KB physical pages, 512 B sectors, 128 KB erase units,
    80 us page read, 200 us page program, 1.5 ms block erase. *)

type t = {
  sector_size : int;  (** unit of logical read/write addressing, bytes *)
  phys_page_size : int;  (** NAND program/read unit, bytes *)
  block_size : int;  (** erase unit, bytes *)
  num_blocks : int;
  t_read_page : float;  (** seconds to read one physical page *)
  t_write_page : float;
      (** seconds to program one physical page. Programming a single 512 B
          sector costs the same (paper, footnote 5). *)
  t_erase_block : float;  (** seconds to erase one block *)
  max_erase_cycles : int;  (** endurance of one erase unit *)
  grow_bad_on_wear_out : bool;
      (** wear model: an erase that would exceed the block's endurance
          fails with [Erase_error] and the block becomes a grown bad
          block (see {!Flash_chip.is_bad}); the bad-block manager in
          [lib/resilience] is built on this. When false, erases past the
          endurance succeed and only the wear counters record them. *)
  materialize : bool;
      (** when false, no data bytes are stored: the chip is a pure
          timing/counter model (used for large simulations) *)
}

val default :
  ?num_blocks:int ->
  ?materialize:bool ->
  ?grow_bad_on_wear_out:bool ->
  unit ->
  t
(** K9WAG08U1A-style chip. [num_blocks] defaults to 1024 (128 MB). *)

val sectors_per_page : t -> int
val sectors_per_block : t -> int
val pages_per_block : t -> int
val capacity_bytes : t -> int

val validate : t -> unit
(** Raises [Invalid_argument] if sizes are inconsistent (non-divisible or
    non-positive). *)
