(* A fixed reference task that gauges how fast the host runs right now.

   The host is shared. Over seconds to minutes its speed for the same
   code swings by up to 50 %, as other work competes for the core's
   caches and the memory bus. Two runs of unchanged code made minutes
   apart then read host rates that differ by that swing. The benchmark
   runs this task between chunks of the window, outside the program's
   calls, and expresses host time on a reference host: one on which the
   task runs at speed 1.0.

   The task has two parts, timed separately: a random walk through a
   256 KB cycle of indices (the size of a core's private cache) and a
   sequential sum over a 16 MB array. Round by round, the program's
   host rate followed the geometric mean of their speeds with a
   correlation of 0.93 to 0.95 on every workload (NOTES.md, "Host
   speed"). Both buffers are Bigarrays, outside the OCaml heap, and a
   pass allocates nothing, so the task leaves the program's heap and
   collector alone. It calls no code of the program, so a change to the
   program cannot change it. *)

open Bigarray

let cycle_len = 1 lsl 15
let walk_steps = 200_000
let scan_len = 1 lsl 21

(* Seconds each part takes on the reference host. *)
let nominal_walk_s = 2.1e-3
let nominal_scan_s = 2.4e-3

let cycle =
  let a = Array1.create int c_layout cycle_len in
  let st = Random.State.make [| 0x9e37 |] in
  for i = 0 to cycle_len - 1 do
    Array1.unsafe_set a i i
  done;
  (* Sattolo's shuffle: one cycle through every entry. *)
  for i = cycle_len - 1 downto 1 do
    let j = Random.State.int st i in
    let t = Array1.unsafe_get a i in
    Array1.unsafe_set a i (Array1.unsafe_get a j);
    Array1.unsafe_set a j t
  done;
  a

let scan = Array1.init int c_layout scan_len (fun i -> i land 0xff)
let sink = ref 0

let walk () =
  let p = ref 0 in
  for _ = 1 to walk_steps do
    p := Array1.unsafe_get cycle !p
  done;
  sink := !sink + !p

let sum () =
  let s = ref 0 in
  for i = 0 to scan_len - 1 do
    s := !s + Array1.unsafe_get scan i
  done;
  sink := !sink + !s

let seconds f =
  let t0 = Ipl_util.Clock.now_ns () in
  f ();
  let t1 = Ipl_util.Clock.now_ns () in
  Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* The host's speed now, relative to the reference host, and the host
   seconds the measurement took. *)
let measure () =
  let w = seconds walk in
  let s = seconds sum in
  (sqrt (nominal_walk_s /. w *. (nominal_scan_s /. s)), w +. s)
