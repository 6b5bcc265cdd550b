(** Deterministic fault plans for {!Flash_sim.Flash_chip.set_fault_hook}.

    A plan is a pure function from the chip's monotonically increasing
    operation index (and the operation about to run) to a fault action.
    Because the index stream of a deterministic workload is reproducible,
    a plan pins a fault to an exact point in an execution — the basis of
    the crash-point campaign in {!Campaign}. *)

type t = int -> Flash_sim.Flash_chip.op -> Flash_sim.Flash_chip.fault_action

val none : t

val crash_at : ?tear:bool -> int -> t
(** [crash_at n] power-fails the chip at operation index [n] (and keeps it
    dead for every later operation). With [~tear:true], if the fatal
    operation is a multi-sector program it is torn half-way first, so the
    surviving flash state contains a partially programmed page. *)

val transient_read : point:int -> t
(** Fail the read at operation index [point] with
    {!Flash_sim.Flash_chip.Read_error}; the data is intact and later
    reads succeed. *)

(** {1 Probabilistic device-failure plans}

    Deterministic for a given [seed]: the decision for operation index
    [n] is a hash of [(seed, n)], so a campaign re-runs identically. *)

val flaky_reads :
  seed:int -> ?correctable:float -> ?transient:float -> ?min_sector:int -> unit -> t
(** A flaky device: reads need ECC correction with probability
    [correctable] (default 0.05) and fail outright with probability
    [transient] (default 0.01); the first read the plan sees fails
    outright whatever the draw, so every seed drives the bad-block
    manager's read-retry path as well as its scrub-on-correctable one.
    [min_sector] (default 0) exempts lower addresses — regions like the
    metadata/transaction logs that sit outside the bad-block manager and
    have no retry path. Stateful; install a fresh instance per run. *)

val program_failures : seed:int -> rate:float -> ?min_sector:int -> unit -> t
(** Each program at or above [min_sector] fails
    ({!Flash_sim.Flash_chip.Program_error}, no state change) with
    probability [rate]. *)

val erase_failures : seed:int -> rate:float -> ?first_block:int -> unit -> t
(** Each erase of a block at or above [first_block] fails
    ({!Flash_sim.Flash_chip.Erase_error}, block left un-erased) with
    probability [rate]. *)

val wear_out :
  seed:int -> first_block:int -> min_cycles:int -> max_cycles:int -> unit -> t
(** Wear-out-to-exhaustion: every block at or above [first_block] gets a
    seeded endurance budget in [min_cycles, max_cycles]; once this plan
    has seen the block erased that many times, all its further erases
    fail — permanently, like a grown bad block. Stateful (counts erases
    internally), so install a fresh instance per run. Blocks below
    [first_block] never wear, keeping regions that sit outside the
    bad-block manager (metadata / transaction logs) alive. *)

val program_fail_then_crash :
  point:int -> crash_after:int -> ?min_sector:int -> unit -> t
(** Fail the first program at index >= [point] (and address >=
    [min_sector]) — forcing the bad-block manager into a relocation —
    then power-fail the chip [crash_after] operations later, landing the
    crash inside or just after the remap. Stateful; install a fresh
    instance per run. *)

val seq : t list -> t
(** First non-[Proceed] answer wins. *)

val install : Flash_sim.Flash_chip.t -> t -> unit
val clear : Flash_sim.Flash_chip.t -> unit
(** [clear] also revives a chip killed by a fail-stop, modelling power
    coming back on before restart recovery. *)
