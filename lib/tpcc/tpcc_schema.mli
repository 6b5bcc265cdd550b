(** TPC-C schema: tables, composite-key packing, and row generation.

    Rows are {!Storage.Record.t} field lists. A few free-text columns are
    shorter than the TPC-C specification (e.g. [c_data] is capped at 200
    characters) so that any single physiological log record fits one
    512-byte flash log sector (bulk loads are logged too when run on the
    real engine). Cardinalities follow
    the spec: 10 districts per warehouse, 3 000 customers per district,
    100 000 items, 100 000 stock rows per warehouse. One warehouse is
    roughly 100 MB, so the paper's "1 GB database" is [scale = 10]. *)

type table =
  | Warehouse
  | District
  | Customer
  | History
  | New_order
  | Orders
  | Order_line
  | Item
  | Stock

val all_tables : table list
val table_name : table -> string

(** {1 Cardinalities} *)

val districts_per_warehouse : int
val customers_per_district : int
val items : int
val initial_orders_per_district : int

(** {1 Composite-key packing}

    Every primary key packs into one 63-bit integer. *)

val warehouse_key : w:int -> int
val district_key : w:int -> d:int -> int
val customer_key : w:int -> d:int -> c:int -> int
val orders_key : w:int -> d:int -> o:int -> int
val new_order_key : w:int -> d:int -> o:int -> int
val order_line_key : w:int -> d:int -> o:int -> ol:int -> int
val item_key : i:int -> int
val stock_key : w:int -> i:int -> int

val orders_key_o : int -> int
(** Extract the order number back out of an orders/new-order key. *)

(** {1 Row generators} *)

val warehouse_row : Ipl_util.Rng.t -> w:int -> Storage.Record.t
val district_row : Ipl_util.Rng.t -> w:int -> d:int -> Storage.Record.t
val customer_row : Ipl_util.Rng.t -> w:int -> d:int -> c:int -> Storage.Record.t
val history_row : Ipl_util.Rng.t -> w:int -> d:int -> c:int -> amount:float -> Storage.Record.t
val new_order_row : w:int -> d:int -> o:int -> Storage.Record.t
val orders_row : Ipl_util.Rng.t -> w:int -> d:int -> o:int -> c:int -> ol_cnt:int -> Storage.Record.t
val order_line_row :
  Ipl_util.Rng.t -> w:int -> d:int -> o:int -> ol:int -> i:int -> qty:int -> Storage.Record.t
val item_row : Ipl_util.Rng.t -> i:int -> Storage.Record.t
val stock_row : Ipl_util.Rng.t -> w:int -> i:int -> Storage.Record.t

(** {1 Field indexes used by the transactions} *)

module F : sig
  val w_ytd : int
  val d_next_o_id : int
  val d_ytd : int
  val c_balance : int
  val c_ytd_payment : int
  val c_payment_cnt : int
  val c_delivery_cnt : int
  val c_data : int
  val c_credit : int
  val o_carrier_id : int
  val ol_delivery_d : int
  val ol_amount : int
  val s_quantity : int
  val s_ytd : int
  val s_order_cnt : int
  val s_remote_cnt : int
end

(** {1 Customer-name secondary index} *)

val last_name_number : string -> int option
(** Inverse of {!Ipl_util.Rng.last_name}: the syllable number in
    [\[0, 999\]] behind a generated last name. *)

val customer_name_key : w:int -> d:int -> name:int -> c:int -> int
(** Key for the by-last-name secondary index: all customers of a district
    sharing a last name are contiguous, ordered by customer number. *)

val customer_name_range : w:int -> d:int -> name:int -> int * int
(** Inclusive key range covering one (warehouse, district, last name). *)

(** {1 NURand constants (clause 2.1.6)} *)

val nurand_customer : Ipl_util.Rng.t -> int
(** Customer number in [1, 3000]. *)

val nurand_item : Ipl_util.Rng.t -> int
(** Item number in [1, 100000]. *)
