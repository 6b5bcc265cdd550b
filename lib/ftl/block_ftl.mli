(** DRAM-buffered block-mapping FTL, modelling the M-Tron MSD-P35 SSD the
    paper measured (Section 4.1).

    The device exposes fixed-size logical pages (the DBMS page, 8 KB in the
    paper). A DRAM write buffer of [dram_segments] segments, each covering
    [segment_blocks] {e contiguous, aligned} erase units, absorbs writes;
    a segment is flushed when evicted (LRU) or on [flush]. Flushing a
    segment rewrites each dirty erase unit: the still-clean pages of the
    unit are copied back, the unit is erased (via a spare-block swap), and
    the merged content is programmed. Contiguous units flushed in one batch
    are pipelined across channels/planes, which is what makes bulk
    sequential writes (paper's Q4) and modest strides (Q5) so much cheaper
    than scattered writes (Q6). *)

type config = {
  dram_segments : int;  (** 16 in the MSD-P35 *)
  segment_blocks : int;  (** 8 erase units = 1 MB per segment *)
  channel_ways : int;  (** baseline device parallelism on any transfer *)
  pipeline_depth : int;
      (** extra pipelining factor across blocks flushed in one batch,
          capped at this many blocks *)
  host_read_overhead : float;  (** per host read request, seconds *)
  host_write_overhead : float;
  host_rate : float;  (** host interface bandwidth, bytes/s *)
}

type stats = {
  host_reads : int;
  host_writes : int;
  dram_read_hits : int;
  segment_evictions : int;
  block_rmws : int;  (** erase-unit read-merge-write cycles *)
  copyback_page_reads : int;  (** physical pages copied back during RMW *)
}

type t

val create : ?config:config -> Flash_sim.Flash_chip.t -> page_size:int -> t
(** The chip must leave at least one block spare: the addressable logical
    space is [(num_blocks - spare) * block_size]. *)

val device : t -> Device.t
val stats : t -> stats
val chip : t -> Flash_sim.Flash_chip.t

val format : t -> unit
(** Mark every addressable logical page as live (as after bulk-loading a
    table) without charging time, and reset all statistics. *)

val elapsed : t -> float
(** Simulated device time (parallelism-adjusted) plus host transfer time.
    This is intentionally different from the chip's own [elapsed], which
    accounts every operation serially. *)
