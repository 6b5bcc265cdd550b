(** Canonicalization of Typedtree paths into plain component lists, plus
    the matchers every rule shares.

    Dune-wrapped libraries mangle unit names ("Ipl_core__Ipl_engine"), and
    the repo idiom binds local aliases ([module Dev = Device.Flash_device]),
    so one function is referenced under several spellings. [canon] expands
    the path head through the per-unit alias environment and splits mangled
    unit names, so every spelling agrees on one component list. *)

type env = {
  unit_prefix : string list;
  aliases : (string, string list) Hashtbl.t;
}

val split_unit_name : string -> string list
(** ["Ipl_core__Ipl_engine"] -> [["Ipl_core"; "Ipl_engine"]]. *)

val fresh_env : string list -> env
val add_alias : env -> string -> string list -> unit

val canon : env -> Path.t -> string list
(** Canonical components of a path: alias-expanded head, mangling split,
    non-global heads prefixed with the unit. *)

val key : string list -> string
(** Components joined with ['.'] — the summary-table key. *)

val has : string -> string list -> bool
val last : string list -> string

val is_submit : string list -> bool
val is_await : string list -> bool
val is_barrier : string list -> bool
val is_raise : string list -> bool
val is_ignore : string list -> bool

val is_apply_op : string list -> bool
(** [Stdlib.( @@ )] — callers re-associate [f @@ x] into [f x]. *)

val is_pipe_op : string list -> bool
(** [Stdlib.( |> )] — callers re-associate [x |> f] into [f x]. *)

val is_flash_op : string list -> string list -> bool
(** [is_flash_op ops comps]: the components name a chip operation in [ops]. *)

val banned_determinism : string list -> bool

val exn_key : string list -> string option
(** Canonical ["Module.Constructor"] key when the components name a
    contract exception. *)

val type_path : Types.type_expr -> Path.t option
(** Path of the head type constructor, if any. *)

val is_tag_type : env -> Types.type_expr -> bool
val is_result_type : env -> Types.type_expr -> bool
(** [Stdlib.result] or [Result.t] — not any type named [result]. *)

val is_engine_result_type : env -> Types.type_expr -> bool
(** [(_, Ipl_engine.error) result]. *)
