(** Byte-size constants and pretty-printing. *)

val kib : int -> int
(** [kib n] is [n * 1024]. *)

val mib : int -> int
(** [mib n] is [n * 1024 * 1024]. *)

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable size, e.g. [128 KB], [1.5 MB]. *)

val pp_seconds : Format.formatter -> float -> unit
(** Human-readable duration from seconds, e.g. [340.7 s], [1.5 ms]. *)
