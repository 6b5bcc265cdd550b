(** The one knob of the parallel execution layer: how many domains.

    Resolution order for the CLI tools: an explicit [--jobs N] wins,
    otherwise the [IPL_JOBS] environment variable, otherwise 1 — and the
    result is clamped to [Domain.recommended_domain_count ()], so a
    caller cannot oversubscribe the runtime from the command line.
    [jobs = 1] (the default everywhere) is the bit-for-bit serial path:
    no pool, no domains, no scheduling. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val clamp : int -> int
(** [clamp j] is [j] forced into [\[1, recommended ()\]]. *)

val resolve : ?cli:int -> unit -> int
(** [resolve ~cli ()] picks the job count: [cli] if positive, else a
    positive integer [IPL_JOBS], else 1; clamped with {!clamp}. A [cli]
    of 0 or below means "not given on the command line". *)
