(** Discovery and loading of dune-emitted .cmt files (with the .cmti
    beside each) under a build context, mapped back to repo-relative
    sources. Generated units (the wrapped-library alias module, .ml-gen
    files) are skipped. *)

type unit_info = {
  source : string;  (** repo-relative source, e.g. "lib/core/ipl_engine.ml" *)
  dir : string;  (** "lib/core" — keys the per-layer contracts *)
  unit_prefix : string list;  (** canonical unit, e.g. ["Ipl_core"; "Ipl_engine"] *)
  env : Sema_path.env;  (** unit canonicalization env with local aliases *)
  structure : Typedtree.structure;
  signature : Typedtree.signature option;  (** from the .cmti; [None] without an .mli *)
}

val default_build_root : unit -> string
(** ["_build/default"] when present (running from the workspace root),
    else ["."] (running inside a build context or dune rule). *)

val load :
  build_root:string -> source_root:string -> string list -> unit_info list
(** Load every implementation cmt under [build_root]/<root> for the given
    roots, sorted by source path. Executable units are there only after
    [dune build @check]. *)

val interface_source : unit_info -> string
(** The .mli path beside the unit's source. *)
