(** Heap files: unordered collections of records spread over IPL pages.

    The set of member pages is itself stored in (logged) directory pages,
    so a heap survives restarts given its directory-head page id. Records
    are addressed by row ids (page, slot) that stay stable for the row's
    lifetime. *)

type t

type rowid = int
(** Packed (page, slot). *)

val create : Ipl_core.Ipl_engine.t -> t
val attach : Ipl_core.Ipl_engine.t -> header:int -> t
(** Re-open by directory-head page id (after restart). *)

val header : t -> int

val insert : t -> tx:Ipl_core.Ipl_engine.txn -> bytes -> (rowid, string) result
(** Places the record in a page with room, allocating a new member page
    when needed. *)

val read : t -> rowid -> bytes option
val update : t -> tx:Ipl_core.Ipl_engine.txn -> rowid -> bytes -> (unit, string) result
val delete : t -> tx:Ipl_core.Ipl_engine.txn -> rowid -> (unit, string) result

val iter : t -> (rowid -> bytes -> unit) -> unit
(** Every live record, page by page in allocation order. *)

val fold : t -> init:'a -> f:('a -> rowid -> bytes -> 'a) -> 'a

val page_count : t -> int
(** Member data pages (directory pages excluded). *)

val record_count : t -> int
(** Live records (full scan). *)
