(* Probes around every call the benchmark makes into the program.

   Untraced, a probe accumulates only what the end-to-end metrics need:
   host nanoseconds spent inside top-level program calls, and the words
   those calls allocated. Traced, it additionally reads the device clock
   around each call and files the call under a named span, so every
   host nanosecond and simulated second can be attributed to the layer
   that was called. Nested spans (the TPC-C store operations inside a
   transaction) are recorded only when traced and never count twice
   towards the top-level totals. *)

module Clock = Ipl_util.Clock

type span = {
  name : string;
  mutable calls : int;
  mutable host_ns : int;
  mutable sim_s : float;
}

type t = {
  traced : bool;
  mutable sim : unit -> float;  (* device clock of the engine under test *)
  mutable host_ns : int;
  mutable minor : float;
  mutable promoted : float;
  mutable major : float;
  mutable sim_s : float;  (* device time inside top-level calls (traced) *)
  mutable overhead_words : float;  (* the probe's own allocation per call *)
  mutable spans : span list;
  mutable gauging : bool;  (* inside the timed window *)
  mutable speeds : float list;  (* host speed ([Pace]) at each gauge *)
  mutable pace_s : float;  (* host seconds the gauges took *)
}

let span t name =
  let s = { name; calls = 0; host_ns = 0; sim_s = 0.0 } in
  t.spans <- s :: t.spans;
  s

(* Start the timed window: clear what the set-up accumulated. *)
let reset t =
  t.host_ns <- 0;
  t.gauging <- true;
  t.speeds <- [];
  t.pace_s <- 0.0;
  t.minor <- 0.0;
  t.promoted <- 0.0;
  t.major <- 0.0;
  t.sim_s <- 0.0;
  List.iter
    (fun s ->
      s.calls <- 0;
      s.host_ns <- 0;
      s.sim_s <- 0.0)
    t.spans

let elapsed_ns t0 t1 = Int64.to_int (Int64.sub t1 t0)

let call t s f =
  let s0 = if t.traced then t.sim () else 0.0 in
  let mi0, pr0, ma0 = Gc.counters () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  let mi1, pr1, ma1 = Gc.counters () in
  let dt = elapsed_ns t0 t1 in
  t.host_ns <- t.host_ns + dt;
  t.minor <- t.minor +. (mi1 -. mi0 -. t.overhead_words);
  t.promoted <- t.promoted +. (pr1 -. pr0);
  t.major <- t.major +. (ma1 -. ma0);
  if t.traced then begin
    let ds = t.sim () -. s0 in
    s.calls <- s.calls + 1;
    s.host_ns <- s.host_ns + dt;
    s.sim_s <- s.sim_s +. ds;
    t.sim_s <- t.sim_s +. ds
  end;
  r

let sub t s f =
  if not t.traced then f ()
  else begin
    let s0 = t.sim () in
    let t0 = Clock.now_ns () in
    let r = f () in
    let t1 = Clock.now_ns () in
    s.calls <- s.calls + 1;
    s.host_ns <- s.host_ns + elapsed_ns t0 t1;
    s.sim_s <- s.sim_s +. (t.sim () -. s0);
    r
  end

(* The minor words one empty [call] allocates by itself (the boxed
   counters and clock readings), measured once and subtracted from every
   call so that allocation per transaction is the program's alone. *)
let create ~traced =
  let t =
    {
      traced;
      sim = (fun () -> 0.0);
      host_ns = 0;
      minor = 0.0;
      promoted = 0.0;
      major = 0.0;
      sim_s = 0.0;
      overhead_words = 0.0;
      spans = [];
      gauging = false;
      speeds = [];
      pace_s = 0.0;
    }
  in
  let s = span t "calibration" in
  let n = 1000 in
  for _ = 1 to n do
    call t s ignore
  done;
  t.overhead_words <- t.minor /. float_of_int n;
  t.spans <- [];
  reset t;
  t.gauging <- false;
  t

(* Gauge the host's speed between chunks of the window (see [Pace]).
   Workloads call this at fixed transaction counts, outside every
   program call; it does nothing during set-up. *)
let gauge t =
  if t.gauging then begin
    let speed, took = Pace.measure () in
    t.speeds <- speed :: t.speeds;
    t.pace_s <- t.pace_s +. took
  end

let host_s t = float_of_int t.host_ns *. 1e-9
let words t = t.minor +. t.major -. t.promoted
let mean_host_us s = if s.calls = 0 then 0.0 else float_of_int s.host_ns /. float_of_int s.calls /. 1e3
let mean_sim_us s = if s.calls = 0 then 0.0 else s.sim_s /. float_of_int s.calls *. 1e6
let now_s = Clock.now_s
