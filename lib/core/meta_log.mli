(** The system log: one append-only stream of tagged events in a small
    reserved flash region, compacted into a snapshot when full. It holds
    the logical-to-physical mapping and each page's image length, which
    the paper (Section 3.3) leaves to the FTL as metadata that changes
    only on allocations and merges, and the status records of the
    system-wide transaction log (Section 5.1; {!Trx_log} keeps their
    in-memory rules). One scan of it after a crash, with the
    flash's free state, rebuilds the storage manager's and the
    transaction table's state; no in-page log sector is read.

    The region is two halves that take turns: the log grows in the live
    half, and a compaction writes and forces its snapshot in the other
    half before making it live and erasing the old one. A crash inside a
    compaction therefore restarts from the old half, as if the
    compaction had not begun. *)

type event =
  | Page_alloc of { page : int; eu : int; idx : int; sectors : int; start : int; base : int }
      (** logical page placed at data slot [idx] of erase unit [eu], its
          packed image filling [sectors] sectors from sector [start] of
          the unit's block, whose log region starts at sector [base]; the
          three take a byte each *)
  | Merge of { units : (int * int) list; trades : (int * int) list; sectors : int array list }
      (** one atomic merge of one or two data units: each [(old_eu,
          new_eu)] of [units] moved all its pages, same slots, to
          [new_eu], except that for each [(i, j)] of [trades] (a pair
          only) the pages at slot [i] of the first unit and slot [j] of
          the second traded units. [sectors] holds, per unit, the image
          sectors of each slot after the trades (0 for a free slot),
          from which the layout rule places the images and the log
          (DESIGN.md §22).
          Trades increase in both slots: the record holds them as one
          bitmap of slots per unit; with a byte per slot's sectors, a
          merge of [n] units of [d] slots takes [4 + 8n + nd] bytes,
          plus [2 ceil(d/8)] for a pair *)
  | Overflow_alloc of { eu : int }  (** [eu] becomes an overflow log area *)
  | Overflow_assign of { data_eu : int; sector : int }
      (** flat sector address [sector] (inside an overflow area) now holds
          log records belonging to [data_eu] *)
  | Overflow_release of { data_eu : int }
      (** [data_eu] was merged; its overflow sectors are dead *)
  | Overflow_free of { eu : int }  (** overflow area erased and freed *)
  | Remap of { virt : int; phys : int }
      (** bad-block manager: virtual erase unit [virt] is now backed by
          physical block [phys] *)
  | Retire of { block : int }  (** physical block permanently retired *)
  | Degraded  (** spare pool exhausted: device is read-only from here on *)
  | Trx_begin of { txid : int }  (** transaction [txid] began *)
  | Trx_commit of { txid : int }  (** transaction [txid] committed *)
  | Trx_abort of { txid : int }  (** transaction [txid] aborted *)
  | Trx_high of { txid : int }
      (** a compaction snapshot's mark: no id above [txid] was issued *)

val of_bbm_event : Resilience.Bbm.persist_event -> event
(** The system-log form of a bad-block manager event: [Remap],
    [Retire] or [Degraded]. *)

val to_bbm_event : event -> Resilience.Bbm.persist_event option
(** Inverse of {!of_bbm_event}; [None] for every other event. *)

type t

val create : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t
(** Erase the region and start an empty log. [num_blocks] must be even
    and at least 2: each half takes half of them. *)

val recover : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t * event list
(** Durable events of the live half in append order: its snapshot, then
    what was logged after it. Reads the first sector of each written half
    once, and the live half's other written sectors. *)

val log : t -> event -> unit
(** Appended buffered; see {!force}. When the region fills up it is
    compacted ({!compact}) first. *)

val publish : t -> unit
val settle : t -> unit
val force : t -> unit
(** See {!Seq_log.publish}, {!Seq_log.settle} and {!Seq_log.force}. *)

val set_snapshot : t -> (unit -> event list) -> unit
(** Register the function that dumps the current state as a minimal event
    list, used for compaction. Must be set before the region can fill. *)

val compact : t -> unit
(** Write the registered snapshot into the other half (erasing it first
    if a crash left it written), force it, make that half live, then
    erase the old half. Buffered events of the old half are dropped: the
    snapshot reflects them. *)

val compactions : t -> int
(** Compactions since the log was created, restarts included: the live
    half's epoch. *)

(** {1 Exception-safe callers}

    The merge path buffers several events before forcing them as one
    atomic step. If the merge fails part-way (an injected power loss, a
    worn-out block), the buffered events describe a merge that never
    happened; {!mark}/{!rollback} discard them. *)

type mark

val mark : t -> mark

val rollback : t -> mark -> bool
(** Discard events logged since [mark], status records included;
    [false] if a sector was forced in between or the log compacted:
    then {!compact} once the in-memory state is restored. *)

val encode : event -> bytes
val decode : bytes -> event
