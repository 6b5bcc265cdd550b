(** Trace generation driver — the reproduction's stand-in for running
    Hammerora against a commercial server (Section 4.2.1).

    [generate_trace] loads a TPC-C database into the logical layout store
    and runs the transaction mix, producing a named update-reference
    trace. The paper's three traces map to:

    - 100M.20M.10u  -> [~warehouses:1  ~buffer_mb:20]
    - 1G.20M.100u   -> [~warehouses:10 ~buffer_mb:20]
    - 1G.40M.100u   -> [~warehouses:10 ~buffer_mb:40]

    plus the 60/80/100 MB pools of Figure 7. The simulated-user count only
    names the trace: transactions execute one at a time, which leaves the
    page-reference stream equivalent for this single-version store. *)

type result = {
  trace : Reftrace.Trace.t;
  counts : Tpcc_txn.counts;
  db_pages : int;
  transactions : int;
}

val trace_name : warehouses:int -> buffer_mb:int -> users:int -> string
(** e.g. "1G.20M.100u". *)

val generate_trace :
  ?sizing:Tpcc_txn.sizing ->
  ?seed:int ->
  warehouses:int ->
  buffer_mb:int ->
  users:int ->
  transactions:int ->
  unit ->
  result

val generate_trace_series :
  ?sizing:Tpcc_txn.sizing ->
  ?seed:int ->
  warehouses:int ->
  users:int ->
  transactions:int ->
  buffer_mbs:int list ->
  unit ->
  (int * Reftrace.Trace.t) list
(** Load the database once, then produce one trace per buffer-pool size
    (running [transactions] per phase on a fresh pool). Far cheaper than
    loading per configuration; the database ages slightly between phases,
    as it would across consecutive Hammerora runs. *)

(** {1 Running on the real engine} *)

module Engine_run : sig
  type t = {
    engine : Ipl_core.Ipl_engine.t;
    store : Tpcc_engine_store.t;
    counts : Tpcc_txn.counts;
  }

  val run :
    ?sizing:Tpcc_txn.sizing ->
    ?seed:int ->
    ?config:Ipl_core.Ipl_config.t ->
    chip_blocks:int ->
    transactions:int ->
    unit ->
    t
  (** Load a (small) TPC-C database on a fresh IPL engine and run the mix
      end-to-end, rolling back 1% of New-Order transactions. *)
end
