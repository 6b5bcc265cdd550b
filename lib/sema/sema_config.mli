(** Repo-specific tables of the analyser: the layering diagram, restricted
    flash entry points, geometry literals, file and directory allowlists,
    and the contract universes of the typed rules. *)

type library = { dir : string; wrapper : string; allowed : string list }

val libraries : library list
(** The layering diagram: one entry per internal library with the wrapper
    modules it may reference. *)

val library_of_dir : string -> library option
val wrapper_names : string list

val chip_module_names : string list
(** Module path components identifying the chip ([Chip], [Flash_chip]). *)

val flash_mutators : string list
(** Flash_chip operations only the device and raw-flash layers may call. *)

val flash_ops : string list
(** Flash_chip operations whose results must not be discarded. *)

val flash_call_allowed_dirs : string list

val geometry_literals : int list

val geometry_config_files : string list
(** Basenames allowed to contain raw geometry literals. *)

val bytes_unsafe_allowed_files : string list

val tag_leak_exempt_files : string list
(** Files allowed to manufacture/drop tags (the device implementation). *)

val submit_fns : string list
(** Flash_device submission functions whose tag carries a durability
    obligation (submit_read is exempt by design). *)

val determinism_whitelist_files : string list
(** The only sanctioned wall-clock sites. *)

val banned_idents : (string * string) list
(** (some path component, final component) pairs of nondeterministic idents. *)

val contract_exceptions : (string * string list) list
(** Contract exception universe as (module component, constructors):
    the device faults and the page rebuild's replay failure. *)

val exn_escape_dirs : string list
(** Directories whose mli-exported functions must not leak any contract
    exception. *)
