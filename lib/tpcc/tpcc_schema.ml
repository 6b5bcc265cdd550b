module Rng = Ipl_util.Rng
open Storage.Record

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

let all_tables =
  [ Warehouse; District; Customer; History; New_order; Orders; Order_line; Item; Stock ]

let table_name = function
  | Warehouse -> "warehouse"
  | District -> "district"
  | Customer -> "customer"
  | History -> "history"
  | New_order -> "new_order"
  | Orders -> "orders"
  | Order_line -> "order_line"
  | Item -> "item"
  | Stock -> "stock"

(* c_data is the longest mutable string: a full-field rewrite logs a
   before+after image, and both must fit one flash log sector together
   with the record framing. Checked against the real chip geometry
   instead of assuming 512. *)
let c_data_cap = 200

let () =
  let sector =
    (Flash_sim.Flash_config.default ()).Flash_sim.Flash_config.sector_size
  in
  assert (2 * c_data_cap < sector)

let districts_per_warehouse = 10
let customers_per_district = 3000
let items = 100_000
let initial_orders_per_district = 3000

(* Key packing. Bounds: w <= 9999, d <= 10, c <= 99_999, o < 10^8,
   ol <= 99, i <= 999_999. *)
let warehouse_key ~w = w
let district_key ~w ~d = (w * 100) + d
let customer_key ~w ~d ~c = (district_key ~w ~d * 100_000) + c
let orders_key ~w ~d ~o = (district_key ~w ~d * 100_000_000) + o
let new_order_key = orders_key
let order_line_key ~w ~d ~o ~ol = (orders_key ~w ~d ~o * 100) + ol
let item_key ~i = i
let stock_key ~w ~i = (w * 1_000_000) + i
let orders_key_o k = k mod 100_000_000

(* Shared column helpers. *)
let address rng =
  [
    S (Rng.alpha_string rng ~min:10 ~max:20);
    (* street-1 *)
    S (Rng.alpha_string rng ~min:10 ~max:20);
    (* street-2 *)
    S (Rng.alpha_string rng ~min:10 ~max:20);
    (* city *)
    S (Rng.alpha_string rng ~min:2 ~max:2);
    (* state *)
    S (Rng.numeric_string rng ~len:9);
    (* zip *)
  ]

let now_stamp = 20070612 (* a fixed "current date" keeps runs deterministic *)

let warehouse_row rng ~w =
  [ I w; S (Rng.alpha_string rng ~min:6 ~max:10) ]
  @ address rng
  @ [ F (Rng.float rng 0.2); (* w_tax *) F 300000.0 (* w_ytd *) ]

let district_row rng ~w ~d =
  [ I d; I w; S (Rng.alpha_string rng ~min:6 ~max:10) ]
  @ address rng
  @ [
      F (Rng.float rng 0.2);
      (* d_tax *)
      F 30000.0;
      (* d_ytd *)
      I (initial_orders_per_district + 1) (* d_next_o_id *);
    ]

let customer_row rng ~w ~d ~c =
  let last = Rng.last_name (if c <= 1000 then c - 1 else Rng.nurand rng ~a:255 ~x:0 ~y:999 ~c:123) in
  [
    I c;
    I d;
    I w;
    S (Rng.alpha_string rng ~min:8 ~max:16);
    (* c_first *)
    S "OE";
    S last;
  ]
  @ address rng
  @ [
      S (Rng.numeric_string rng ~len:16);
      (* c_phone *)
      I now_stamp;
      (* c_since *)
      S (if Rng.chance rng 0.1 then "BC" else "GC");
      F 50000.0;
      (* c_credit_lim *)
      F (Rng.float rng 0.5);
      (* c_discount *)
      F (-10.0);
      (* c_balance *)
      F 10.0;
      (* c_ytd_payment *)
      I 1;
      (* c_payment_cnt *)
      I 0;
      (* c_delivery_cnt *)
      S (Rng.alpha_string rng ~min:50 ~max:c_data_cap) (* c_data, capped *);
    ]

let history_row rng ~w ~d ~c ~amount =
  [ I c; I d; I w; I d; I w; I now_stamp; F amount; S (Rng.alpha_string rng ~min:12 ~max:24) ]

let new_order_row ~w ~d ~o = [ I o; I d; I w ]

let orders_row rng ~w ~d ~o ~c ~ol_cnt =
  [
    I o;
    I d;
    I w;
    I c;
    I now_stamp;
    I (if o < 2101 then 1 + Rng.int rng 10 else 0);
    (* o_carrier_id, 0 = null *)
    I ol_cnt;
    I 1 (* o_all_local *);
  ]

let order_line_row rng ~w ~d ~o ~ol ~i ~qty =
  [
    I o;
    I d;
    I w;
    I ol;
    I i;
    I w;
    (* ol_supply_w_id *)
    I (if o < 2101 then now_stamp else 0);
    (* ol_delivery_d, 0 = null *)
    I qty;
    F (if o < 2101 then 0.0 else Rng.float rng 9999.99);
    (* ol_amount *)
    S (Rng.alpha_string rng ~min:24 ~max:24) (* ol_dist_info *);
  ]

let item_row rng ~i =
  [
    I i;
    I (1 + Rng.int rng 10_000);
    (* i_im_id *)
    S (Rng.alpha_string rng ~min:14 ~max:24);
    F (1.0 +. Rng.float rng 99.0);
    S (Rng.alpha_string rng ~min:26 ~max:50) (* i_data *);
  ]

(* The four mutable stock counters sit together right after the key
   columns: a New-Order stock update then patches one small contiguous
   byte range instead of a range spanning the ten 24-byte district-info
   strings (which would not fit a log sector; see [c_data_cap]). *)
let stock_row rng ~w ~i =
  [
    I i;
    I w;
    I (10 + Rng.int rng 91);
    (* s_quantity *)
    F 0.0;
    (* s_ytd *)
    I 0;
    (* s_order_cnt *)
    I 0 (* s_remote_cnt *);
  ]
  @ List.init districts_per_warehouse (fun _ -> S (Rng.alpha_string rng ~min:24 ~max:24))
  @ [ S (Rng.alpha_string rng ~min:26 ~max:50) (* s_data *) ]

module F = struct
  (* warehouse: 0 w_id, 1 name, 2-6 address, 7 tax, 8 ytd *)
  let w_ytd = 8

  (* district: 0 d_id, 1 w_id, 2 name, 3-7 address, 8 tax, 9 ytd, 10 next_o *)
  let d_ytd = 9
  let d_next_o_id = 10

  (* customer: 0 c_id, 1 d, 2 w, 3 first, 4 middle, 5 last, 6-10 address,
     11 phone, 12 since, 13 credit, 14 credit_lim, 15 discount, 16 balance,
     17 ytd_payment, 18 payment_cnt, 19 delivery_cnt, 20 data *)
  let c_credit = 13
  let c_balance = 16
  let c_ytd_payment = 17
  let c_payment_cnt = 18
  let c_delivery_cnt = 19
  let c_data = 20

  (* orders: 5 o_carrier_id *)
  let o_carrier_id = 5

  (* order_line: 6 ol_delivery_d, 8 ol_amount *)
  let ol_delivery_d = 6
  let ol_amount = 8

  (* stock: 2 s_quantity, 3 s_ytd, 4 s_order_cnt, 5 s_remote_cnt *)
  let s_quantity = 2
  let s_ytd = 3
  let s_order_cnt = 4
  let s_remote_cnt = 5
end

(* Inverse of Rng.last_name, for building the customer-name secondary
   index. *)
let name_numbers = lazy (
  let h = Hashtbl.create 1000 in
  for n = 0 to 999 do
    Hashtbl.replace h (Rng.last_name n) n
  done;
  h)

let last_name_number s = Hashtbl.find_opt (Lazy.force name_numbers) s

(* Secondary-index key: customers with the same (w, d, last name) are
   adjacent, ordered by customer number. *)
let customer_name_key ~w ~d ~name ~c = (((district_key ~w ~d * 1000) + name) * 100_000) + c

let customer_name_range ~w ~d ~name =
  let base = (district_key ~w ~d * 1000) + name in
  (base * 100_000, (base * 100_000) + 99_999)

let nurand_customer rng = Rng.nurand rng ~a:1023 ~x:1 ~y:customers_per_district ~c:259
let nurand_item rng = Rng.nurand rng ~a:8191 ~x:1 ~y:items ~c:7911
