(** Source discovery: walk the given roots for .ml/.mli files and classify
    them by directory (which keys the layering tables). *)

type kind = Impl | Intf

type file = { path : string; kind : kind; dir : string }

val scan : string list -> file list
(** Recursively collect .ml/.mli files under the given roots (files may be
    passed directly). Dot-directories are skipped; results are sorted. *)

val read_file : string -> string

val siblings : file list -> string -> string list
(** Module names defined in the given directory. *)

val in_lib : file -> bool
(** True when the file lives under lib/. *)

val mli_coverage : file list -> Lint_finding.t list
(** mli-coverage rule: every lib implementation needs a matching .mli. *)
