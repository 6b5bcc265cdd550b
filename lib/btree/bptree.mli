(** B+-tree indexes stored in IPL-managed pages.

    Keys and values are 63-bit integers (composite TPC-C keys are packed
    into one integer). Every node is one database page; node mutations go
    through the engine's logged record operations, so index maintenance
    produces the same physiological log traffic as table updates — exactly
    the "data pages of a base table and index nodes" I/O mix of the
    paper's traces.

    Deletion does not rebalance (nodes may underflow); this keeps the
    structure simple and matches the needs of the TPC-C workload, where
    deletes are rare (0.06 % of operations, Table 4). *)

type t

val create : Ipl_core.Ipl_engine.t -> t
(** Allocate a new empty tree (a header page plus an empty root leaf). *)

val attach : Ipl_core.Ipl_engine.t -> header:int -> t
(** Re-open a tree by its header page id (e.g. after restart). *)

val header_page : t -> int
(** Stable page id identifying this tree. *)

val insert : t -> tx:Ipl_core.Ipl_engine.txn -> key:int -> value:int -> (unit, string) result
(** Fails with [Error "duplicate key"] if the key exists. *)

val insert_with :
  t -> tx:Ipl_core.Ipl_engine.txn -> key:int -> (unit -> (int, string) result) -> (unit, string) result
(** [insert_with t ~tx ~key make] descends once. If [key] is present it
    fails with [Error "duplicate key"] without calling [make]; otherwise
    it calls [make ()] for the value and inserts it, or returns [make]'s
    error with the tree unchanged. *)

val set : t -> tx:Ipl_core.Ipl_engine.txn -> key:int -> value:int -> (unit, string) result
(** Insert or overwrite. *)

val find : t -> int -> int option
val mem : t -> int -> bool

val next_ge : t -> int -> (int * int) option
(** Smallest [(key, value)] with [key >=] the argument, if any. *)

val delete : t -> tx:Ipl_core.Ipl_engine.txn -> key:int -> (unit, string) result
(** [Error "not found"] if absent. *)

val range : t -> lo:int -> hi:int -> (int * int) list
(** All [(key, value)] with [lo <= key <= hi], ascending. *)

val iter : t -> (key:int -> value:int -> unit) -> unit
(** Ascending full scan. *)

val min_key : t -> int option
val max_key : t -> int option
val cardinal : t -> int
(** Number of entries (full scan). *)

val height : t -> int
(** 1 for a lone leaf. *)

val check_invariants : t -> (unit, string) result
(** Validate key ordering, separator consistency and leaf chaining; used
    by tests. *)
