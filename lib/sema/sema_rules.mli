(** The rules outside the tag dataflow (which lives in {!Sema_tagflow}). *)

val local : Sema_cmt.unit_info -> Sema_finding.t list
(** One walk over the unit's typed tree and interface: layering (every
    resolved cross-library reference is an edge of the diagram),
    flash-call, no-silent-swallow, no-magic-geometry, banned-construct,
    mli-coverage, sema-determinism and sema-unchecked-result (a dropped
    result or chip-operation return). The directory- and file-keyed
    allowlists read the unit's [dir] and [source]. *)

val exception_escape : Sema_cmt.unit_info list -> Sema_summary.table -> Sema_finding.t list
(** Public functions of the contract directories must not leak contract
    exceptions, and result-typed engine APIs must never raise them. *)
