(** Findings and the [file:line rule-id message] reporter. Every rule is
    an error: any finding left after suppression fails the gate. *)

type t = { rule : string; file : string; line : int; message : string }

val make : rule:string -> file:string -> line:int -> string -> t

val dedup : t list -> t list
(** Deterministic order (path, line, rule, message) with one finding per
    (file, line, rule) — stable input for CI diffs. *)

val pp : Format.formatter -> t -> unit

val print_report : Format.formatter -> t list -> unit
(** Sorted findings, one per line, followed by a one-line summary. *)

val to_json_string : t list -> string
(** Machine-readable report: [{"schema":"ipl-findings/1","tool":"ipl_sema",
    "errors":N,"warnings":0,"findings":[{rule,severity,file,line,message}]}].
    Deduplicated, sorted, byte-stable for identical inputs. *)
