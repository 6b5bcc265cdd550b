(** Operation counters and simulated time of a flash chip. *)

type t = {
  page_reads : int;  (** physical-page read operations *)
  page_writes : int;  (** physical-page program operations *)
  block_erases : int;
  sectors_read : int;
  sectors_written : int;
  elapsed : float;  (** simulated seconds spent in flash operations *)
  max_wear : int;  (** highest per-block erase count *)
  mean_wear : float;  (** mean erase count over all blocks *)
  read_faults : int;  (** uncorrectable read failures (raised [Read_error]) *)
  corrected_reads : int;
      (** reads that succeeded after on-chip ECC correction
          ([Read_correctable] fault action) *)
  program_failures : int;  (** program operations that raised [Program_error] *)
  erase_failures : int;  (** erase operations that raised [Erase_error] *)
  grown_bad_blocks : int;  (** blocks currently marked grown-bad *)
}

(** Every operation has a caller: the device folds its chips with
    [zero]/[add], interval measurement uses [diff], and reports use
    [pp]/[to_json]. *)

val zero : t

val add : t -> t -> t
(** Field-wise sum; [max_wear] takes the max, [mean_wear] the sum (useful
    only for accumulating diffs). *)

val diff : t -> t -> t
(** [diff later earlier] is the per-field difference. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Ipl_util.Json.t
