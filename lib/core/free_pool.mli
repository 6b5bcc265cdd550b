(** The storage manager's free erase units, bucketed by wear. *)

type t

val create : wear:(int -> int) -> channel_of:(int -> int) -> t
(** [wear b] is block [b]'s wear, read once when it joins the pool (0
    for every block disables wear-aware allocation); [channel_of b] is
    the device channel it sits on. *)

val size : t -> int

val add : t -> int -> unit
(** Add a block; a member is left as it is. *)

val take : ?channel:int -> t -> int option
(** Remove and return the least-worn block (lowest block number among
    ties) on [channel], or the global least-worn block when the channel
    has none or no channel is given. [None] when the pool is empty. *)
