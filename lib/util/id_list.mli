(** Doubly linked lists of small non-negative ids, threaded through an
    int array that the caller owns and indexes by id.

    Each id has [stride] consecutive ints in the array; a list keeps an
    id's (prev, next) links at its own offset among them, so several
    lists, and the caller's own per-id fields, can share one array and
    one id's state sits in one or two cache lines. A list has one or
    more buckets, each most recent first: a one-bucket list is a plain
    recency list, and a list with one bucket per count is a frequency
    order. Only a {!add} or {!move} into a bucket past the end
    allocates: it doubles the bucket arrays. The caller grows the link
    array to cover the ids it adds, and passes the current array to every
    call.

    An id must be in at most one bucket of a list. Links of an id that
    was never added are whatever the array held; {!mem} is exact only
    for ids whose prev slot the caller initialised to {!absent}, as
    {!remove} leaves it. *)

type t

val nil : int
(** The end of a bucket: what {!head}, {!tail}, {!prev} and {!next}
    return when there is no id. *)

val absent : int
(** The prev link of an id that is not a member. *)

val create : stride:int -> off:int -> buckets:int -> t
(** An empty list whose links sit at [off] and [off + 1] of each id's
    [stride] ints. [buckets] is the initial bucket count, at least 1. *)

val head : t -> int -> int
(** The most recent id of a bucket, or {!nil}. *)

val tail : t -> int -> int
(** The least recent id of a bucket, or {!nil}. *)

val size : t -> int
(** Members in all buckets. *)

val buckets : t -> int

val prev : int array -> t -> int -> int
(** The next more recent id of the member's bucket, or {!nil}. *)

val next : int array -> t -> int -> int
(** The next less recent id of the member's bucket, or {!nil}. *)

val mem : int array -> t -> int -> bool

val add : int array -> t -> int -> int -> unit
(** [add node l p b] makes [p] the most recent member of bucket [b]. *)

val remove : int array -> t -> int -> int -> unit
(** [remove node l p b] takes member [p] out of bucket [b], its
    bucket. *)

val move : int array -> t -> int -> from:int -> int -> unit
(** [move node l p ~from b] takes member [p] out of bucket [from] and
    makes it the most recent member of bucket [b], which may be
    [from]. *)

val lowest : t -> int
(** The lowest non-empty bucket, or {!buckets} when all are empty.
    Amortised by the buckets emptied since the last call. *)

val halve : int array -> t -> stamp:(int -> int) -> unit
(** Every member of bucket [b] moves to bucket [b / 2]. [stamp p] must
    order each bucket's members: a higher stamp is more recent. The
    merged buckets stay most recent first. Linear in the members and
    the buckets. *)
