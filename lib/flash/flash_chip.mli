(** Simulated NAND flash chip.

    The chip enforces the erase-before-write discipline the paper's whole
    design revolves around: a sector may only be programmed when it is in
    the [Free] (erased) state; re-programming a written sector raises
    {!Write_to_unerased}. Time is charged per physical page touched for
    reads and programs and per block for erases, using the chip's
    {!Flash_config.t}. *)

type t

type sector_state =
  | Free  (** erased, programmable *)
  | Valid  (** programmed, holds live data *)
  | Invalid  (** programmed, data superseded; must be erased before reuse *)

exception Write_to_unerased of int
(** Raised with the offending flat sector address. *)

exception Out_of_range of int

exception Power_loss of int
(** Fail-stop power failure injected by the fault hook; carries the index
    of the operation at which the power failed. Once raised, every further
    operation on the chip raises it too (the machine is off) until the
    hook is cleared with {!set_fault_hook}[ t None]. *)

exception Read_error of int
(** Transient read failure injected by the fault hook; carries the first
    sector of the failed read. The operation had no effect; a retry is a
    new operation and may succeed. *)

exception Program_error of int
(** Program operation reported failure; carries the first sector of the
    failed program. No target sector changed state. Real controllers
    respond by relocating the data and retiring the block — that policy
    lives in [lib/resilience]. Raised for an injected [Program_fail] and
    for any program aimed at a bad block. *)

exception Erase_error of int
(** Erase operation reported failure; carries the block index. The block
    was not erased: previously stored data remains readable. Raised for an
    injected [Erase_fail], for any erase of a bad block, and — under
    [grow_bad_on_wear_out] — for an erase that would exceed the block's
    endurance (which also marks the block grown-bad). *)

(** {1 Fault injection}

    Every read, program and erase is assigned a monotonically increasing
    operation index and offered to an installable hook before it executes.
    The hook decides the operation's fate; [lib/fault] builds deterministic
    crash-point campaigns on top of this. *)

type op =
  | Op_read of { sector : int; count : int }
  | Op_program of { sector : int; count : int }
  | Op_erase of { block : int }

type fault_action =
  | Proceed  (** execute normally *)
  | Fail_stop  (** power fails before the operation: raise {!Power_loss} *)
  | Tear of int
      (** programs only: complete the first [k] sectors, then power fails.
          Ignored (= [Proceed]) on reads; on erases it behaves like
          [Fail_stop]. *)
  | Flip_bit of int
      (** programs only (materializing chips): complete the program, then
          silently flip one bit at the given byte offset within the written
          data — bit rot caught only by checksums. Ignored elsewhere. *)
  | Read_fault  (** reads only: raise {!Read_error}. Ignored elsewhere. *)
  | Read_correctable
      (** reads only: the read succeeds but on-chip ECC had to correct
          bit errors — observable via {!last_read_corrected} so the host
          can scrub the weakening block. Ignored elsewhere. *)
  | Program_fail
      (** programs only: the operation reports failure and raises
          {!Program_error}; no sector changes state. Ignored elsewhere. *)
  | Erase_fail
      (** erases only: the operation reports failure and raises
          {!Erase_error}; the block is not erased. Ignored elsewhere. *)

(** {1 Tracing}

    Independent of fault injection: an optional {!Obs.Tracer.t} receives a
    {!Obs.Event.Read_sector} / [Program_sector] / [Erase_block] event,
    stamped with the simulated clock, after each successful physical
    operation (torn programs report the sectors actually programmed).
    With no tracer installed the hook sites cost one option check. *)

val set_tracer : t -> Obs.Tracer.t option -> unit
val tracer : t -> Obs.Tracer.t option

val set_fault_hook : t -> (int -> op -> fault_action) option -> unit
(** Install or clear the fault hook (called as [hook op_index op]).
    Clearing the hook also revives a chip killed by a fail-stop, so tests
    can inspect or restart from the surviving state. *)

val op_count : t -> int
(** Total operations issued so far (including failed ones). Deterministic
    workloads yield identical operation numbering across runs, which is
    what makes systematic crash-point enumeration possible. *)

val is_dead : t -> bool
(** True after an injected fail-stop until the hook is cleared. *)

val create : Flash_config.t -> t
(** A chip with its own free list of erased block buffers (see
    {!erase_block}). *)

val create_shared : int -> Flash_config.t -> t array
(** [create_shared n config] builds [n] chips that share one free list of
    erased block buffers: a block erased on one chip lends its buffer to
    the next first program of a block on any of them. For the chips of
    one multi-chip device ([Flash_device.create]), whose merges
    program the new erase unit on another chip than the one they erase.
    The list belongs to these chips alone, so chips of different devices
    may run on different domains. *)

val config : t -> Flash_config.t

val num_sectors : t -> int

(** {1 Addressing} *)

val block_of_sector : t -> int -> int
val sector_of_block : t -> int -> int
(** First flat sector address of a block. *)

(** {1 Operations} *)

val read_sectors : t -> sector:int -> count:int -> bytes
(** Read [count] sectors starting at flat address [sector]. Charges one
    page-read per distinct physical page touched. Reading [Free] sectors
    returns 0xFF bytes (erased state), as real NAND does. Reading
    [Invalid] sectors returns the {e stale programmed data}: invalidation
    is a host-side bookkeeping mark, the charge stays trapped in the cells
    until the block is erased. Recovery and the fault-injection layer rely
    on this (e.g. overflow log sectors invalidated by a merge whose
    metadata never became durable are still readable after restart).
    Allocates the result; {!read_sectors_into} is the primitive. *)

val read_sectors_into : t -> sector:int -> count:int -> bytes -> unit
(** [read_sectors_into t ~sector ~count dst] is {!read_sectors} into a
    caller-owned buffer: same checks, fault consultation, counters, clock
    and trace event, with [Free] (or, on a timing-only chip, every) sector
    filled with 0xFF. [dst] must hold at least [count * sector_size]
    bytes; the read fills its front and leaves the rest as it was (a
    packed page image lands at the front of a page-long buffer).
    A failed read (fault, fail-stop, range error) leaves [dst] untouched. *)

val write_sectors : t -> sector:int -> bytes -> unit
(** Program [Bytes.length data / sector_size] sectors starting at [sector].
    The length must be a positive multiple of the sector size. All target
    sectors must be [Free]. Charges one page-program per distinct physical
    page touched. {!write_sectors_from} is the primitive. *)

val write_sectors_from : t -> sector:int -> count:int -> bytes -> unit
(** [write_sectors_from t ~sector ~count data] programs the first [count]
    sectors of [data], which must hold at least that many, and ignores
    the rest: a packed page image programs only the sectors its bytes
    fill. Otherwise as {!write_sectors}; a [Flip_bit] fault lands inside
    the programmed sectors. *)

val invalidate_sectors : t -> sector:int -> count:int -> unit
(** Mark written sectors as [Invalid] (logical operation used by FTLs and
    the IPL storage manager; free of charge, like updating an in-memory
    validity bitmap). Invalidating a [Free] sector is a no-op. *)

val erase_block : t -> int -> unit
(** Erase a whole block: all its sectors become [Free]. On a
    materializing chip the block's stored bytes move to the chip's free
    list (shared with the other chips of its device, see
    {!create_shared}), which holds at most one buffer per erased block.
    The next first program of any block sharing the list takes a buffer
    from it and refills it with 0xFF, and allocates a new one only when
    the list is empty. An erased block's old bytes are never observable:
    [Free] sectors read 0xFF, and a sector becomes readable data again
    only by being programmed. *)

val sector_state : t -> int -> sector_state

(** {1 Accounting} *)

val stats : t -> Flash_stats.t
val reset_stats : t -> unit
val elapsed : t -> float
(** Simulated seconds accumulated so far (same as [(stats t).elapsed]). *)

val clock : t -> Float.Array.t
(** The one-cell array the chip keeps {!elapsed} in, shared, not copied:
    cell 0 moves with every operation. A reader that must not box a
    float (the device scheduler measures each operation's service time
    from it) reads the cell; nothing else may write it. *)

val advance_time : t -> float -> unit
(** Add externally-modelled latency (e.g. host transfer) to the clock. *)

type corrupt_error =
  | Not_materialized  (** timing-only chip: nothing stored to corrupt *)
  | Sector_erased
  | Bad_offset

val corrupt_error_to_string : corrupt_error -> string

val corrupt_sector : ?offset:int -> t -> int -> (unit, corrupt_error) result
(** Fault injection for tests: flip bits at byte [offset] (default 0) of a
    written sector's stored data. On a non-materializing chip this is a
    warned no-op returning [Error Not_materialized], so fault campaigns
    still run on timing-only configs. *)

(** {1 Bad blocks}

    A block can become bad two ways: the wear model under
    [grow_bad_on_wear_out] (an over-endurance erase fails and marks it),
    or the host retiring it with {!mark_bad} after a reported program
    failure. Programs and erases on a bad block raise {!Program_error} /
    {!Erase_error}; reads still work (stored charge remains). *)

val mark_bad : t -> int -> unit
val is_bad : t -> int -> bool

val bad_blocks : t -> int list
(** Indices of all bad blocks, ascending. *)

val last_read_corrected : t -> bool
(** True iff the most recent read ({!read_sectors} or
    {!read_sectors_into}) needed ECC correction ([Read_correctable] fault
    action). Cleared at the start of every read. *)

val erase_count : t -> int -> int
(** Number of erase cycles block [i] has been through. *)

val erase_counts : t -> int array

val wear_histogram : t -> Ipl_util.Histogram.t
(** Erase cycles per block, keyed by block index (every block is present,
    including never-erased ones). Feeds the wear section of campaign
    reports and Figure-4-style analyses. *)

val live_sectors : t -> int
(** Number of [Valid] sectors on the whole chip. *)

val free_sectors_in_block : t -> int -> int
