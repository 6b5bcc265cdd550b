type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty sample";
  let n = Array.length xs in
  let total = Array.fold_left ( +. ) 0.0 xs in
  let mean = total /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
    /. float_of_int n
  in
  let min = Array.fold_left Float.min xs.(0) xs in
  let max = Array.fold_left Float.max xs.(0) xs in
  { count = n; mean; stddev = sqrt var; min; max; total }

let mean xs = (summarize xs).mean

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let gini xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.gini: empty sample";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let total = Array.fold_left ( +. ) 0.0 sorted in
  if total = 0.0 then 0.0
  else begin
    let weighted = ref 0.0 in
    Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) sorted;
    let nf = float_of_int n in
    ((2.0 *. !weighted) /. (nf *. total)) -. ((nf +. 1.0) /. nf)
  end
