type rule = { id : string; severity : Lint.Lint_finding.severity; doc : string }

let rules =
  [
    {
      id = "sema-tag-leak";
      severity = Lint.Lint_finding.Error;
      doc =
        "a Flash_device.submit_write/submit_erase completion tag must reach await, a \
         barrier/drain, or escape to a settling context on every path; a dropped tag is a \
         write whose durability nobody waits for";
    };
    {
      id = "sema-unchecked-result";
      severity = Lint.Lint_finding.Error;
      doc =
        "a result-typed value (engine errors, B+tree outcomes) discarded through ignore or \
         'let _' silently swallows a failure; match it or propagate it";
    };
    {
      id = "sema-exception-escape";
      severity = Lint.Lint_finding.Error;
      doc =
        "device exceptions (Flash_chip read/program/erase faults, Bbm degradation) may not \
         escape the public surface of the upper layers, and result-typed engine APIs must \
         report faults as Error, never raise them";
    };
    {
      id = "sema-determinism";
      severity = Lint.Lint_finding.Error;
      doc =
        "wall-clock and self-seeding randomness (Unix.gettimeofday, Sys.time, \
         Random.self_init, randomized Hashtbl) break simulation determinism; \
         lib/util/clock.ml is the only sanctioned wall-clock site";
    };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) rules

let severity_of id =
  match find_rule id with Some r -> r.severity | None -> Lint.Lint_finding.Error

(* ---- tag-leak ---- *)

(* The device implementation itself manufactures and stores tags. *)
let tag_leak_exempt_files = [ "lib/device/flash_device.ml" ]

let submit_fns = [ "submit_write"; "submit_erase" ]
(* submit_read tags carry no durability obligation: the data is captured at
   submission and reads are excluded from [barrier] by design. *)

(* ---- determinism ---- *)

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

(* ---- exception escape ---- *)

(* Contract universe: canonical key is "<Module>.<Constructor>".
   Power_loss is excluded (the simulated crash must propagate to the
   crash-point campaign); Out_of_range / Write_to_unerased are programming
   errors on a par with Invalid_argument. *)
let contract_exceptions =
  [
    ("Flash_chip", [ "Read_error"; "Program_error"; "Erase_error" ]);
    ("Bbm", [ "Degraded"; "Uncorrectable" ]);
  ]

(* Directories whose public (mli-exported) functions must not leak any
   contract exception: the layers above the engine's typed-error boundary.
   lib/core and below are the fault-aware layers; lib/fault drives crashes
   on purpose. test/fixtures/sema holds the seeded violations. *)
let exn_escape_dirs =
  [ "lib/workload"; "lib/tpcc"; "lib/btree"; "lib/relation"; "lib/txn"; "test/fixtures/sema" ]
