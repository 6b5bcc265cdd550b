module Json = Ipl_util.Json

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let value t = t.n
end

module Latency = struct
  (* Exact count/sum/min/max plus a power-of-two nanosecond bucket
     frequency table: bucket [k] holds observations in [2^k, 2^(k+1)) ns.
     Percentiles are read off the cumulative bucket counts, so they are
     upper bounds with at most 2x relative error — plenty for latency
     profiles, and the representation is a handful of ints no matter how
     many observations arrive. *)
  type t = {
    buckets : int array;  (* [buckets.(k)]: observations in bucket [k] *)
    stats : float array;  (* sum, min, max: a float array holds them unboxed *)
    mutable count : int;
  }

  let num_buckets = 64
  let sum_i = 0
  let min_i = 1
  let max_i = 2

  let create () =
    {
      buckets = Array.make num_buckets 0;
      stats = [| 0.0; Float.infinity; Float.neg_infinity |];
      count = 0;
    }

  (* floor(log2 n) for n > 1, 0 otherwise, by halving the bit range: six
     tests for any [int] instead of one step per bit. *)
  let[@inline] log2_floor n =
    if n <= 1 then 0
    else begin
      let n = ref n and r = ref 0 in
      if !n lsr 32 <> 0 then begin n := !n lsr 32; r := 32 end;
      if !n lsr 16 <> 0 then begin n := !n lsr 16; r := !r + 16 end;
      if !n lsr 8 <> 0 then begin n := !n lsr 8; r := !r + 8 end;
      if !n lsr 4 <> 0 then begin n := !n lsr 4; r := !r + 4 end;
      if !n lsr 2 <> 0 then begin n := !n lsr 2; r := !r + 2 end;
      if !n lsr 1 <> 0 then r := !r + 1;
      !r
    end

  (* floor(log2 ns) computed on the truncated integer — exact, no float
     log rounding at bucket boundaries. At most 62 for any [int]. *)
  let[@inline] bucket_of_seconds v =
    let ns = v *. 1e9 in
    if ns < 1.0 then 0 else log2_floor (int_of_float ns)

  (* Inlined, so [observe_batch] passes no boxed float. *)
  let[@inline] observe t v =
    let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
    let k = bucket_of_seconds v in
    t.buckets.(k) <- t.buckets.(k) + 1;
    t.count <- t.count + 1;
    let s = t.stats in
    s.(sum_i) <- s.(sum_i) +. v;
    if v < s.(min_i) then s.(min_i) <- v;
    if v > s.(max_i) then s.(max_i) <- v

  let observe_batch t values n =
    for i = 0 to n - 1 do
      observe t (Float.Array.get values i)
    done

  let count t = t.count
  let sum t = t.stats.(sum_i)
  let min_seconds t = if t.count = 0 then 0.0 else t.stats.(min_i)
  let max_seconds t = if t.count = 0 then 0.0 else t.stats.(max_i)
  let mean t = if t.count = 0 then 0.0 else sum t /. float_of_int t.count

  let sorted_buckets t =
    let acc = ref [] in
    for k = num_buckets - 1 downto 0 do
      if t.buckets.(k) > 0 then acc := (k, t.buckets.(k)) :: !acc
    done;
    !acc

  let percentile t q =
    if t.count = 0 then 0.0
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
      in
      let rec walk cum = function
        | [] -> max_seconds t
        | (k, n) :: rest ->
            if cum + n >= rank then
              (* Upper bound of the bucket, clamped to the observed range. *)
              let upper_ns = Float.of_int (1 lsl (k + 1)) in
              Float.max (min_seconds t) (Float.min (max_seconds t) (upper_ns /. 1e9))
            else walk (cum + n) rest
      in
      walk 0 (sorted_buckets t)
    end

  let to_json t =
    Json.Obj
      [
        ("count", Json.Int t.count);
        ("sum_s", Json.Float (sum t));
        ("min_s", Json.Float (min_seconds t));
        ("max_s", Json.Float (max_seconds t));
        ("mean_s", Json.Float (mean t));
        ("p50_s", Json.Float (percentile t 0.50));
        ("p90_s", Json.Float (percentile t 0.90));
        ("p99_s", Json.Float (percentile t 0.99));
        ( "buckets",
          Json.List
            (List.map
               (fun (k, n) -> Json.List [ Json.Int (1 lsl k); Json.Int n ])
               (sorted_buckets t)) );
      ]
end

type item = C of Counter.t | H of Latency.t

type t = {
  tbl : (string, item) Hashtbl.t;
  mutable order_rev : string list;  (* registration order, newest first *)
}

let create () = { tbl = Hashtbl.create 32; order_rev = [] }

let register t name item =
  Hashtbl.replace t.tbl name item;
  t.order_rev <- name :: t.order_rev

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> c
  | Some (H _) -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " is a histogram")
  | None ->
      let c = Counter.create () in
      register t name (C c);
      c

let latency t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (H h) -> h
  | Some (C _) -> invalid_arg ("Obs.Metrics.latency: " ^ name ^ " is a counter")
  | None ->
      let h = Latency.create () in
      register t name (H h);
      h

let names t = List.rev t.order_rev

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> Some (`Counter (Counter.value c))
  | Some (H h) -> Some (`Histogram h)
  | None -> None

let to_json t =
  let counters = ref [] and histos = ref [] in
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | C c -> counters := (name, Json.Int (Counter.value c)) :: !counters
      | H h -> histos := (name, Latency.to_json h) :: !histos)
    t.order_rev;
  Json.Obj [ ("counters", Json.Obj !counters); ("histograms", Json.Obj !histos) ]
