(** The five TPC-C transactions, parameterised over a {!Tpcc_store.S}.

    Simplifications relative to the full specification, all irrelevant to
    the write-reference behaviour the paper studies: customer selection is
    always by id (never by last name), Order-Status picks one recent order
    directly instead of scanning by customer, and the bad-credit Payment
    path rewrites a fixed-size window of [c_data] so that every update log
    record fits one flash log sector. *)

type sizing = {
  warehouses : int;
  districts : int;  (** per warehouse *)
  customers : int;  (** per district *)
  items : int;  (** also the stock rows per warehouse *)
  orders : int;  (** initially loaded orders per district *)
}

val spec_sizing : warehouses:int -> sizing
(** Full TPC-C cardinalities (one warehouse is roughly 100 MB). *)

val mini_sizing : sizing
(** A tiny database for tests and examples: 1 warehouse, 2 districts,
    60 customers, 200 items, 30 initial orders per district. *)

type counts = {
  mutable new_order : int;
  mutable payment : int;
  mutable order_status : int;
  mutable delivery : int;
  mutable stock_level : int;
  mutable rollbacks : int;
}

module Make (S : Tpcc_store.S) : sig
  type ctx

  val make_ctx : ?rollback_rate:float -> S.t -> seed:int -> sizing -> ctx
  (** [rollback_rate] is the fraction of New-Order transactions aborted by
      an invalid item (1 % per the spec). Set it to 0.0 when running on a
      store without abort support. *)

  val load : ctx -> unit
  (** Populate the database (items, warehouses, stock, districts,
      customers, initial orders). *)

  val new_order : ctx -> unit
  val payment : ctx -> unit
  val order_status : ctx -> unit
  val delivery : ctx -> unit
  val stock_level : ctx -> unit

  val run : ctx -> n:int -> unit
  val counts : ctx -> counts
  val store : ctx -> S.t
end
