(** Typed trace events emitted by the hook points across the stack.

    The three layers each contribute their own vocabulary: the flash chip
    emits physical operations ([Read_sector], [Program_sector],
    [Erase_block]); the IPL storage manager emits logical ones
    ([Log_flush], [Overflow_diversion], [Merge], …); the buffer pool and
    engine emit cache and transaction lifecycle events. All payload fields
    are plain integers so that constructing an event allocates nothing but
    the event itself. *)

type t =
  | Read_sector of { sector : int; count : int }
      (** physical read of [count] sectors at flat address [sector] *)
  | Program_sector of { sector : int; count : int }
      (** physical program; [count] is the number actually programmed *)
  | Erase_block of { block : int }
  | Page_alloc of { page : int; eu : int }
      (** logical page placed into erase unit [eu] *)
  | Page_read of { page : int; eu : int }
      (** logical page read: stored image + log replay *)
  | Log_flush of { page : int; eu : int; records : int }
      (** in-page log sector programmed for [page] *)
  | Overflow_diversion of { page : int; eu : int; records : int }
      (** log sector diverted to the overflow area (carry > tau) *)
  | Merge of {
      eu : int;
      new_eu : int;
      partner : int;
      moved : int;
      applied : int;
      carried : int;
      dropped : int;
    }
      (** erase unit rewritten; counts are records applied / carried over /
          dropped as aborted. [partner] is the other unit of a pair merge
          (-1 for a merge of one unit), [moved] how many of [eu]'s pages
          went to the partner's new unit (as many came back from it) *)
  | Cache_hit of { eu : int }
      (** log-record cache served the unit's records; no flash read *)
  | Cache_miss of { eu : int }
      (** unit's log region read and decoded from flash, entry installed *)
  | Cache_evict of { eu : int; bytes : int }
      (** LRU entry dropped to fit the cache's byte budget *)
  | Evict of { page : int }  (** buffer pool evicted a frame *)
  | Write_back of { page : int }  (** dirty frame cleaned (log flushed) *)
  | Commit of { tx : int }
  | Abort of { tx : int }
  | Checkpoint
  | Read_retry of { sector : int; attempt : int }
      (** bad-block manager retrying a failed physical read *)
  | Remap of { virt : int; from_phys : int; to_phys : int }
      (** virtual erase unit relocated to a spare after a program/erase
          failure *)
  | Retire of { block : int }  (** physical block permanently retired *)
  | Scrub of { virt : int; to_phys : int }
      (** preventive relocation after a correctable (ECC) read *)
  | Degraded  (** spare pool exhausted: device now read-only *)

val kind : t -> string
(** Stable snake_case tag, e.g. ["log_flush"] — the [kind] field of the
    JSON rendering and the event column of CSV exports. *)

val kinds : string list
(** Every {!kind} tag, in declaration order — a stable key order for
    per-kind aggregations. *)

val fields : t -> (string * int) list
(** Payload as ordered field/value pairs (empty for [Checkpoint]). *)

val to_json : t -> Ipl_util.Json.t
(** [Obj] with ["kind"] first, then {!fields}. *)

val pp : Format.formatter -> t -> unit
