(** Orchestration: load cmts under the build context, build the summary
    table, run every rule, apply [@lint.allow] suppressions and report. *)

val check : Sema_cmt.unit_info list -> Sema_finding.t list
(** Analyze the given units as one program. Results are suppressed,
    deduplicated and sorted. *)

val load :
  ?build_root:string -> ?source_root:string -> string list -> Sema_cmt.unit_info list
(** {!Sema_cmt.load} with [build_root] defaulting to [_build/default] when
    present, else ["."] (inside a build context), and [source_root] to
    ["."]. *)

val dump_summaries :
  ?build_root:string ->
  ?source_root:string ->
  Format.formatter ->
  string list ->
  unit
(** Debug aid: print every function summary with a non-trivial fact
    (raises/settles/barriers/returns-tag). *)

val parse_args : string list -> string option * string list * string list
(** [--json FILE] (report mirror, [-] for stdout), repeatable [--rule ID]
    filters, and the remaining arguments as roots. *)

val main :
  ?ppf:Format.formatter ->
  ?json_out:string ->
  ?rules:string list ->
  ?build_root:string ->
  ?source_root:string ->
  string list ->
  int
(** Report on the roots (default: lib bin bench), optionally filtered to
    the given rule ids and mirrored to a JSON file ([-] for stdout).
    Returns 1 when any finding remains, else 0. *)
