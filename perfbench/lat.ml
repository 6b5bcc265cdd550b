(* Latency samples and the quantile estimator reported for them.

   Device-clock latencies are sums of a few fixed service times, so they
   are discrete: a nearest-rank percentile sits on one of a handful of
   values and jumps between them. The mid-distribution quantile
   interpolates between adjacent distinct values along the mid-CDF
   F(x) - P(X = x)/2, so it moves smoothly with the shares of each
   value; on data without ties it is the usual interpolated quantile. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }
let clear t = t.n <- 0

let add t x =
  if t.n = Array.length t.a then begin
    let a = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let to_array t = Array.sub t.a 0 t.n

let mid_quantile samples q =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    (* distinct values with their mid-CDF *)
    let vals = ref [] and i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j < n && a.(!j) = a.(!i) do
        incr j
      done;
      let mid = (float_of_int !i +. (float_of_int (!j - !i) /. 2.0)) /. float_of_int n in
      vals := (a.(!i), mid) :: !vals;
      i := !j
    done;
    let vals = Array.of_list (List.rev !vals) in
    let m = Array.length vals in
    let v k = fst vals.(k) and f k = snd vals.(k) in
    if q <= f 0 then v 0
    else if q >= f (m - 1) then v (m - 1)
    else begin
      let k = ref 0 in
      while f (!k + 1) <= q do
        incr k
      done;
      let k = !k in
      v k +. ((q -. f k) /. (f (k + 1) -. f k) *. (v (k + 1) -. v k))
    end
  end
