(** The Section 4.1 experiment: queries Q1–Q6 over a 640 000-record table
    (64 000 pages of 8 KB; 16 pages — one erase unit — per 128 KB block)
    run against the disk model and the DRAM-buffered flash SSD model.

    Access patterns, from the paper:
    - Q1: read the whole table sequentially.
    - Q2: read random 16-page chunks, each chunk contiguously, every page
          once.
    - Q3: read at stride 16 (0, 16, 32, ..., then 1, 17, 33, ...).
    - Q4: update every page sequentially.
    - Q5: update at stride 16 pages (= one erase unit).
    - Q6: update at stride 128 pages (= one DRAM-buffer segment). *)

type query = Q1 | Q2 | Q3 | Q4 | Q5 | Q6

val all : query list
val name : query -> string

val table_pages : int
(** 64 000 *)

val pattern : ?seed:int -> query -> (int * int) Seq.t
(** The access pattern as [(first_page, contiguous_count)] requests. *)

type measurement = {
  query : query;
  elapsed : float;
  erases : int;  (** flash block erases; 0 on disk *)
  segment_evictions : int;  (** FTL write-buffer evictions; 0 on disk *)
}

val run_on_flash : ?config:Ftl.Block_ftl.config -> query -> measurement
(** Builds a fresh flash device holding the populated table, runs the
    query's pattern, flushes, and reports simulated time. *)

val table3 :
  ?disk:Disk_sim.Disk_config.t ->
  ?flash:Ftl.Block_ftl.config ->
  unit ->
  (query * measurement * measurement) list
(** All six queries on both devices: the reproduction of Table 3. *)

val random_to_sequential_ratios :
  (query * measurement * measurement) list ->
  [ `Read | `Write ] -> [ `Disk | `Flash ] -> float * float
(** Table 2: (min, max) ratio of the random queries' times to the
    sequential query's time, per workload class and medium. *)
