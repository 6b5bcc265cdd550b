type rule = { id : string; severity : Lint_finding.severity; doc : string }

let rules =
  [
    {
      id = "layering";
      severity = Lint_finding.Error;
      doc =
        "library dependency whitelist: ipl_util depends on nothing internal, flash_sim only on \
         ipl_util, and every other library only on the layers below it";
    };
    {
      id = "flash-call";
      severity = Lint_finding.Error;
      doc =
        "only the multi-channel device (lib/device) and the raw-flash storage designs \
         (lib/baseline, lib/ftl) may invoke Flash_chip program/erase operations directly; \
         everything else goes through Device.Flash_device";
    };
    {
      id = "no-silent-swallow";
      severity = Lint_finding.Error;
      doc =
        "a 'try ... with' catch-all that discards the exception hides flash protocol violations; \
         narrow the handler or report via Logs";
    };
    {
      id = "no-ignored-flash-result";
      severity = Lint_finding.Error;
      doc =
        "'ignore (Chip.read_sectors ...)' (or 'let _ = ...') makes flash errors invisible; bind \
         the result and check it";
    };
    {
      id = "no-magic-geometry";
      severity = Lint_finding.Error;
      doc =
        "raw chip-geometry literals (512/2048/8192/16384/131072) outside the config modules \
         silently break when the chip configuration changes";
    };
    {
      id = "banned-construct";
      severity = Lint_finding.Error;
      doc =
        "Obj.magic anywhere, Bytes.unsafe_* outside lib/util/byte_arena.ml, and polymorphic \
         compare applied to Bytes.* results are forbidden";
    };
    {
      id = "mli-coverage";
      severity = Lint_finding.Error;
      doc = "every lib/**.ml must have a matching .mli so the public surface is explicit";
    };
    {
      id = "parse-error";
      severity = Lint_finding.Error;
      doc = "the file could not be parsed; the linter cannot vouch for it";
    };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) rules

let severity_of id =
  match find_rule id with Some r -> r.severity | None -> Lint_finding.Error

(* Flat chip geometry numbers of the default configuration: sector (512 B),
   physical page (2 KB), database page / log region (8 KB), and erase block
   (128 KB), plus 16384 (block sector count variants seen in earlier
   drafts). Kept as literals only here and in the config modules below. *)
let geometry_literals = [ 512; 2048; 8192; 16384; 131072 ]

(* Basenames allowed to define geometry: the three config modules, and this
   module (the list above). *)
let geometry_config_files =
  [ "flash_config.ml"; "ipl_config.ml"; "disk_config.ml"; "lint_config.ml" ]

(* Flash_chip mutators whose direct call sites are restricted. *)
let flash_mutators = [ "write_sectors"; "program_sectors"; "erase_block" ]

(* Flash_chip operations whose results must not be discarded. *)
let flash_ops =
  [ "read_sectors"; "write_sectors"; "program_sectors"; "erase_block"; "invalidate_sectors" ]

(* Module path components identifying the chip in a call like
   [Chip.read_sectors] or [Flash_sim.Flash_chip.read_sectors]. *)
let chip_module_names = [ "Chip"; "Flash_chip" ]

(* Directories whose code may program/erase the chip directly. lib/flash
   is the chip itself; lib/device is the multi-channel device that now
   owns all chip access for the IPL stack (lib/core and lib/resilience
   talk to Device.Flash_device, not the chip); lib/baseline and lib/ftl
   are storage designs deliberately built on the raw serial chip. *)
let flash_call_allowed_dirs = [ "lib/flash"; "lib/device"; "lib/baseline"; "lib/ftl" ]

(* The only module allowed to use Bytes.unsafe_*. *)
let bytes_unsafe_allowed_files = [ "lib/util/byte_arena.ml" ]

type library = { dir : string; wrapper : string; allowed : string list }

(* The layering diagram (also in DESIGN.md "Static invariants"): [allowed]
   lists the wrapper modules of the internal libraries the library may
   reference. It mirrors the dune files; the linter recomputes the edges
   from the parsetrees, so a reference that sneaks in without a dune change
   (via a re-export) is still caught. *)
let libraries =
  [
    { dir = "lib/util"; wrapper = "Ipl_util"; allowed = [] };
    { dir = "lib/par"; wrapper = "Par"; allowed = [] };
    { dir = "lib/lint"; wrapper = "Lint"; allowed = [] };
    { dir = "lib/sema"; wrapper = "Sema"; allowed = [ "Lint" ] };
    { dir = "lib/obs"; wrapper = "Obs"; allowed = [ "Ipl_util" ] };
    { dir = "lib/cache"; wrapper = "Cache"; allowed = [ "Ipl_util" ] };
    { dir = "lib/flash"; wrapper = "Flash_sim"; allowed = [ "Ipl_util"; "Obs" ] };
    { dir = "lib/device"; wrapper = "Device"; allowed = [ "Ipl_util"; "Obs"; "Flash_sim" ] };
    {
      dir = "lib/resilience";
      wrapper = "Resilience";
      allowed = [ "Ipl_util"; "Obs"; "Flash_sim"; "Device" ];
    };
    { dir = "lib/disk"; wrapper = "Disk_sim"; allowed = [ "Ipl_util" ] };
    { dir = "lib/storage"; wrapper = "Storage"; allowed = [ "Ipl_util" ] };
    { dir = "lib/buffer"; wrapper = "Bufmgr"; allowed = [ "Ipl_util"; "Obs" ] };
    { dir = "lib/trace"; wrapper = "Reftrace"; allowed = [ "Ipl_util" ] };
    {
      dir = "lib/core";
      wrapper = "Ipl_core";
      allowed =
        [
          "Ipl_util";
          "Obs";
          "Flash_sim";
          "Device";
          "Resilience";
          "Storage";
          "Bufmgr";
          "Cache";
        ];
    };
    { dir = "lib/btree"; wrapper = "Btree"; allowed = [ "Ipl_util"; "Storage"; "Ipl_core" ] };
    { dir = "lib/txn"; wrapper = "Ipl_txn"; allowed = [ "Ipl_util"; "Ipl_core"; "Par" ] };
    { dir = "lib/ftl"; wrapper = "Ftl"; allowed = [ "Ipl_util"; "Flash_sim"; "Disk_sim" ] };
    {
      dir = "lib/sim";
      wrapper = "Iplsim";
      allowed = [ "Ipl_util"; "Reftrace"; "Flash_sim"; "Device"; "Ipl_core" ];
    };
    {
      dir = "lib/relation";
      wrapper = "Relation";
      allowed = [ "Ipl_util"; "Storage"; "Ipl_core"; "Btree" ];
    };
    {
      dir = "lib/tpcc";
      wrapper = "Tpcc";
      allowed =
        [ "Ipl_util"; "Storage"; "Bufmgr"; "Ipl_core"; "Btree"; "Relation"; "Reftrace"; "Flash_sim" ];
    };
    {
      dir = "lib/baseline";
      wrapper = "Baseline";
      allowed = [ "Ipl_util"; "Flash_sim"; "Disk_sim"; "Ftl"; "Reftrace"; "Iplsim" ];
    };
    {
      dir = "lib/workload";
      wrapper = "Workload";
      allowed =
        [
          "Ipl_util";
          "Obs";
          "Flash_sim";
          "Device";
          "Disk_sim";
          "Ftl";
          "Ipl_core";
          "Ipl_txn";
          "Resilience";
          "Baseline";
          "Par";
        ];
    };
    {
      dir = "lib/fault";
      wrapper = "Fault";
      allowed =
        [ "Ipl_util"; "Flash_sim"; "Device"; "Resilience"; "Storage"; "Ipl_core"; "Ipl_txn"; "Par" ];
    };
  ]

let library_of_dir dir = List.find_opt (fun l -> l.dir = dir) libraries
let wrapper_names = List.map (fun l -> l.wrapper) libraries

(* lib/**.ml files exempt from mli-coverage (none today; keep the mechanism
   so future exemptions are a reviewed config change, not a silent hole). *)
let mli_exempt_files : string list = []
