(** Orchestration: scan the roots, run the parsetree walker and the
    dependency checker on every file, apply suppressions, and report. *)

val run : string list -> Lint_finding.t list
(** Lint every .ml/.mli under the given roots, including mli-coverage.
    Deduplicated by (file, line, rule) and sorted deterministically. *)

val parse_args : string list -> string option * string list * string list
(** [(json_out, rules, roots)] from argv-style arguments: [--json FILE],
    repeatable [--rule ID], everything else a root. Shared by the thin
    ipl_lint / ipl_sema executables. *)

val main :
  ?ppf:Format.formatter ->
  ?json_out:string ->
  ?rules:string list ->
  string list ->
  int
(** Lint the roots (default: lib bin bench), print the report, optionally
    filter to the given rule ids and mirror the report to a JSON file
    ([-] for stdout), and return the exit status: 1 when any
    error-severity finding remains, else 0. *)
