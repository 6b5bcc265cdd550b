(* Repo-specific tables of the analyser. The rules themselves are described
   in DESIGN.md §7. *)

(* ---- layering ---- *)

type library = { dir : string; wrapper : string; allowed : string list }

(* The layering diagram (also in DESIGN.md §7): [allowed] lists the wrapper
   modules of the internal libraries the library may reference. It mirrors
   the dune files; the analyser recomputes the edges from the resolved path
   at every reference site, so a reference that sneaks in without a dune
   change (via a re-export) is still caught. *)
let libraries =
  [
    { dir = "lib/util"; wrapper = "Ipl_util"; allowed = [] };
    { dir = "lib/par"; wrapper = "Par"; allowed = [] };
    { dir = "lib/sema"; wrapper = "Sema"; allowed = [] };
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

(* ---- flash-call and dropped flash results ---- *)

(* Module path components identifying the chip: the canonical Flash_chip,
   and Chip for an alias the canonicalization cannot expand (one bound
   inside a nested or local module). *)
let chip_module_names = [ "Chip"; "Flash_chip" ]

(* Flash_chip mutators whose direct call sites are restricted. *)
let flash_mutators = [ "write_sectors"; "erase_block" ]

(* Flash_chip operations whose results must not be discarded. *)
let flash_ops = [ "read_sectors"; "write_sectors"; "erase_block"; "invalidate_sectors" ]

(* Directories whose code may program/erase the chip directly. lib/flash
   is the chip itself; lib/device is the multi-channel device that owns all
   chip access for the IPL stack (lib/core and lib/resilience talk to
   Device.Flash_device, not the chip); lib/baseline and lib/ftl are storage
   designs deliberately built on the raw serial chip. *)
let flash_call_allowed_dirs = [ "lib/flash"; "lib/device"; "lib/baseline"; "lib/ftl" ]

(* ---- no-magic-geometry ---- *)

(* Flat chip geometry numbers of the default configuration: sector (512 B),
   physical page (2 KB), database page / log region (8 KB), and erase block
   (128 KB), plus 16384 (block sector count variants seen in earlier
   drafts). Kept as literals only here and in the config modules below. *)
let geometry_literals = [ 512; 2048; 8192; 16384; 131072 ]

(* Basenames allowed to define geometry: the three config modules, and this
   module (the list above). *)
let geometry_config_files =
  [ "flash_config.ml"; "ipl_config.ml"; "disk_config.ml"; "sema_config.ml" ]

(* ---- banned-construct ---- *)

(* The only module allowed to use Bytes.unsafe_*. *)
let bytes_unsafe_allowed_files = [ "lib/util/byte_arena.ml" ]

(* ---- sema-tag-leak ---- *)

(* The device implementation itself manufactures and stores tags. *)
let tag_leak_exempt_files = [ "lib/device/flash_device.ml" ]

let submit_fns = [ "submit_write"; "submit_erase" ]
(* submit_read tags carry no durability obligation: the data is captured at
   submission and reads are excluded from [barrier] by design. *)

(* ---- sema-determinism ---- *)

let determinism_whitelist_files = [ "lib/util/clock.ml" ]

(* (some path component, final component) pairs naming banned idents. *)
let banned_idents =
  [
    ("Unix", "gettimeofday");
    ("Unix", "time");
    ("Sys", "time");
    ("Random", "self_init");
    ("State", "make_self_init");
    ("Hashtbl", "randomize");
  ]

(* ---- sema-exception-escape ---- *)

(* Contract universe: canonical key is "<Module>.<Constructor>".
   Power_loss is excluded (the simulated crash must propagate to the
   crash-point campaign); Out_of_range / Write_to_unerased are programming
   errors on a par with Invalid_argument. Log_record.Replay_failed is the
   page rebuild's one failure: an exception inside lib/core, so it can
   cross the buffer pool's fetch callback and a merge's rollback, and a
   typed error ([Replay_failed]) at the engine's surface. *)
let contract_exceptions =
  [
    ("Flash_chip", [ "Read_error"; "Program_error"; "Erase_error" ]);
    ("Bbm", [ "Degraded"; "Uncorrectable" ]);
    ("Log_record", [ "Replay_failed" ]);
  ]

(* Directories whose public (mli-exported) functions must not leak any
   contract exception: the layers above the engine's typed-error boundary.
   lib/core and below are the fault-aware layers; lib/fault drives crashes
   on purpose. test/fixtures/sema holds the seeded violations. *)
let exn_escape_dirs =
  [ "lib/workload"; "lib/tpcc"; "lib/btree"; "lib/relation"; "lib/txn"; "test/fixtures/sema" ]
