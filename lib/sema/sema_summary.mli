(** Cross-module function summaries computed to a fixpoint: which contract
    exceptions a function can raise and catch, whether it transitively
    settles tags (await) or issues durability barriers, and whether it
    returns a Flash_device tag. The summary table is what turns the
    intra-procedural rules into a whole-program analysis. *)

module SSet : Set.S with type elt = string

type t = {
  key : string;  (** canonical "Unit.Sub.fn" *)
  file : string;
  dir : string;
  line : int;
  public_name : string;
  toplevel : bool;  (** directly under the unit (not in a nested module) *)
  env : Sema_path.env;
  body : Typedtree.expression;
  catches : SSet.t;  (** contract exceptions its try/with can absorb *)
  catch_all : bool;
  returns_tag : bool;
  returns_engine_result : bool;  (** returns [(_, Ipl_engine.error) result] *)
  mutable raises : SSet.t;  (** contract exceptions that can escape *)
  mutable settles : bool;  (** transitively awaits some tag *)
  mutable barriers : bool;  (** transitively calls barrier/drain *)
}

type table = (string, t) Hashtbl.t

val build : Sema_cmt.unit_info list -> table
(** Collect a summary per top-level function binding of every unit and run
    the raises/settles/barriers fixpoint (monotone over a finite lattice). *)

val iter_children : (Typedtree.expression -> unit) -> Typedtree.expression -> unit
(** Visit every direct child expression (shared traversal helper). *)

val iter_all : (Typedtree.expression -> unit) -> Typedtree.expression -> unit
(** Visit an expression and every expression below it. *)

