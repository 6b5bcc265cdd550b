(** Named counters and latency histograms.

    A registry maps names to metrics created on first use ([counter] /
    [latency] are get-or-create). Latency histograms keep exact
    count/sum/min/max plus 64 power-of-two nanosecond buckets in flat
    arrays, so an observation allocates nothing, percentile queries cost
    O(buckets) and the memory footprint is independent of the number of
    observations. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Latency : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Record one observation in seconds. Negative and NaN observations are
      clamped to zero. *)

  val observe_batch : t -> Float.Array.t -> int -> unit
  (** [observe_batch t values n] records [values.(0)] to [values.(n-1)] in
      order, exactly as [n] calls of {!observe} would, without boxing them:
      a caller that keeps its samples in a flat array allocates nothing. *)

  val count : t -> int
  val sum : t -> float
  val min_seconds : t -> float
  val max_seconds : t -> float
  val mean : t -> float
  (** All 0.0 when no observations were made. *)

  val bucket_of_seconds : float -> int
  (** The bucket of an observation: floor(log2) of its whole nanoseconds,
      0 below 2 ns. *)

  val percentile : t -> float -> float
  (** [percentile t q] for q in [0,1]: an upper bound on the q-quantile
      (bucket upper edge, clamped to the observed min/max — at most 2x
      relative error). *)

  val to_json : t -> Ipl_util.Json.t
  (** [{count, sum_s, min_s, max_s, mean_s, p50_s, p90_s, p99_s,
      buckets: [[lo_ns, count], …]}] with buckets sorted ascending. *)
end

type t
(** A metrics registry. *)

val create : unit -> t

val counter : t -> string -> Counter.t
(** Get or create. Raises [Invalid_argument] if the name is registered as
    a histogram. *)

val latency : t -> string -> Latency.t
(** Get or create. Raises [Invalid_argument] if the name is registered as
    a counter. *)

val names : t -> string list
(** All registered names in registration order. *)

val find : t -> string -> [ `Counter of int | `Histogram of Latency.t ] option
(** Look up a metric without creating it. *)

val to_json : t -> Ipl_util.Json.t
(** [{counters: {...}, histograms: {...}}] in registration order. *)
