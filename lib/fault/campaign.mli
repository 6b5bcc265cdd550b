(** Systematic crash-point campaign.

    One golden run of the deterministic {!Workload} counts the chip's
    flash operations. The campaign then re-runs the workload once per
    crash point: a fresh chip and engine, the point's fault plan
    installed, the power loss caught, the chip revived, the database
    reopened with [Ipl_engine.restart], and the recovered state compared
    against the oracle — committed transactions durable, uncommitted ones
    rolled back, in-doubt commits atomic, every page readable. The loop
    is written once, and so is the check: every history reports itself to
    the one {!Oracle} as it runs. A {!campaign} names what differs: the
    history (the serial loop, or MVCC sessions through
    {!Ipl_txn.Session.run}), the engine config and the fault plan. *)

type report = {
  total_ops : int;  (** flash operations in the golden run *)
  setup_ops : int;  (** of which setup (not eligible as crash points) *)
  crash_points : int;  (** crash points actually tested *)
  recovered : int;  (** restarts that completed *)
  in_doubt : int;  (** crash points that hit mid-commit *)
  violations : (int * string list) list;  (** crash point -> violations *)
  max_wear : int;
  mean_wear : float;  (** per-block erase wear of the golden run *)
  log_compactions : int;  (** system-log compactions in the golden run *)
  compaction_points : int;
      (** crash points tested inside those compactions: a sampled sweep
          adds every one of their flash operations to its sample *)
  pair_merges : int;  (** pair merges in the golden run *)
  pair_points : int;
      (** crash points tested inside those pair merges, whose flash
          operations a sampled sweep adds to its sample too *)
}

type campaign =
  | Serial of { broken : bool }
      (** The serial mix ({!Workload.run_resilient}, durable watermark at
          every returned commit), crashed at flash operations
          ({!Fault_plan.crash_at}). [broken] runs the engine
          with commit-time log forcing effectively disabled (an enormous
          group-commit window) — a deliberately unsound recovery
          configuration that the checker must flag, used to validate the
          checker itself. *)
  | Concurrent of { sessions : int }
      (** The same mix pre-drawn ({!Workload.plans}) and run by
          {!Ipl_txn.Session.run} over [sessions] clients with a
          group-commit window of [sessions]; its history stream feeds the
          oracle, whose durable watermark follows the group barriers.
          [in_doubt] counts crash points that hit inside the commit call
          of a transaction with writes. *)
  | Remap_crash of { spares : int }
      (** Crash during a bad-block remap, on an engine with [spares]
          spare blocks: force a program failure (hence a relocation) at
          the first program after setup, then power-fail [delta]
          operations later, for a fixed list of deltas (1 to 40) that
          land inside the copy, between the copy and the remap force, and
          after it. The crash points, and the report's [violations] keys,
          are those deltas; [tear], [max_ops], [sample] and [stride] do
          not apply, [lazy_mode] and [jobs] do. The remap
          persist-before-switch ordering makes every delta recoverable. *)

val run :
  ?tear:bool ->
  ?max_ops:int ->
  ?sample:int ->
  ?stride:int ->
  ?lazy_mode:bool ->
  ?jobs:int ->
  campaign ->
  Workload.spec ->
  report
(** The crash-point sweep. Fails with [Failure] if the fault-free golden
    run meets a typed engine error: that is a harness bug, not a
    finding.

    [tear] (default [true]) tears multi-sector programs at the crash
    point instead of failing cleanly before them. [max_ops] (0 = no cap)
    bounds how far past setup crash points may fall; [sample] (0 = all)
    tests only that many points, spread evenly; [stride] (default 1) then
    keeps every [stride]-th of them. Every flash operation of a
    system-log compaction or a pair merge in the golden run (within
    [max_ops]) is a crash point too, sampled or not.

    [lazy_mode] (default [false]) gives every crash point a
    {e drain-first} twin. The restart under test reads only the system
    log and repairs each unit at its first touch, here the oracle's
    reads; the twin is a bit-identical crashed chip, rebuilt by the
    deterministic workload, restarted and fully drained with
    {!Ipl_core.Ipl_engine.drain_repairs} before any read. Its logical
    digest (every page/slot value) must equal the first-touch engine's,
    both right after that engine's restart and again after its own
    drain has settled every pending unit. Any mismatch is reported as a
    violation at that crash point. The engine's configuration is the
    same with and without it.

    [jobs] (default 1) fans the crash points across a
    {!Par.Domain_pool} — each point rebuilds its own chip, engine and
    oracle, so the points are independent by construction, and the
    per-point verdicts are merged back in point order. The report is
    identical to the serial sweep for every job count; [jobs = 1] runs
    the serial path itself with no domains spawned. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Resilience campaign}

    Device-failure profiles (as opposed to crash points): the fault plan
    stays installed for a whole run of the workload against an engine
    with a bad-block manager ([spare_blocks > 0]), and the oracle asserts
    zero data loss up to the moment of degradation. *)

type profile =
  | Flaky  (** correctable + transient read faults *)
  | Program_faults  (** random program failures *)
  | Erase_faults  (** random erase failures *)
  | Wear_out  (** per-block endurance budgets, to spare-pool exhaustion *)

val profile_of_string : string -> profile option
(** ["flaky" | "program" | "erase" | "wearout"]. *)

type resilience_report = {
  profile : profile;
  outcome : Workload.resilient_outcome;
  writes_refused_after_degrade : bool;
      (** degraded engines must answer mutations with [Device_degraded] *)
  degradation_persisted : bool;
      (** a restart reproduces the (non-)degraded state *)
  resilience : Resilience.Bbm.stats;  (** retries, remaps, scrubs, … *)
  violations : string list;  (** oracle check on the live engine *)
  restart_violations : string list;  (** oracle check after restart *)
}

val resilience_ok : resilience_report -> bool
(** No violations (live or after restart) and both degradation
    assertions hold. *)

val run_resilience :
  ?spares:int -> ?transactions:int -> ?seed:int -> profile -> resilience_report
(** [spares] (default 4) sizes the spare pool; [transactions] overrides
    the profile's default workload length (wear-out runs long enough to
    exhaust the pool). *)

val pp_resilience_report : Format.formatter -> resilience_report -> unit
