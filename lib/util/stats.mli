(** Summary statistics over float samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val mean : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], by linear interpolation on the
    sorted copy of [xs]. *)

val gini : float array -> float
(** Gini coefficient of a non-negative sample: 0 = perfectly even,
    approaching 1 = maximally skewed. Used to characterise update-frequency
    skew (Figure 4 of the paper). *)
