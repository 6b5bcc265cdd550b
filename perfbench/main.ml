(* Benchmark entry point: runs one workload for a given seed and prints one
   JSON result line.

     main.exe --workload oltp-sessions|read-mostly|tpcc --seed N
              --seconds S --trace 0|1
              [--log-cache-bytes N] [--group-window N] [--geometry CxW]

   A run is a sequence of rounds, each a fresh set-up followed by the
   same seeded window of transactions and a crash/restart; rounds repeat
   until [--seconds] of host time have passed (at least three). With
   [--trace 0] every round is untraced and the end-to-end metrics are
   printed; with [--trace 1] untraced and traced rounds alternate and
   the per-layer metrics are printed. The optional flags override sizing
   for the sensitivity self-check. If any output check fails the result
   reports [correct: false] and no numbers. *)

let workloads =
  [ ("oltp-sessions", Oltp.run); ("read-mostly", Read_mostly.run); ("tpcc", Tpcc_wl.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload oltp-sessions|read-mostly|tpcc --seed N --seconds S --trace 0|1 \
     [--log-cache-bytes N] [--group-window N] [--geometry CxW]";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = Hashtbl.find_opt tbl k in
  let int k = Option.map (fun v -> match int_of_string_opt v with Some n -> n | None -> usage ()) (get k) in
  let need k = match int k with Some n -> n | None -> usage () in
  let geometry =
    Option.map
      (fun g -> match String.split_on_char 'x' g with [ c; w ] -> (int_of_string c, int_of_string w) | _ -> usage ())
      (get "geometry")
  in
  let run = match Option.bind (get "workload") (fun w -> List.assoc_opt w workloads) with Some r -> r | None -> usage () in
  ( run,
    need "seed",
    need "seconds",
    need "trace" = 1,
    {
      Round.log_cache_bytes = int "log-cache-bytes";
      group_window = int "group-window";
      geometry;
    } )

let min_rounds = 3
let max_rounds = 12

let result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u) metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 attempted) failed m

let () =
  let run, seed, seconds, trace, o = parse Sys.argv in
  let t0 = Probe.now_s () in
  let untraced = ref [] and traced = ref [] in
  let rounds () = List.length !untraced + List.length !traced in
  let attempted () = List.fold_left (fun a (r : Round.t) -> a + r.attempted) 0 (!untraced @ !traced) in
  let failures = ref [] in
  let needed = if trace then min_rounds + 1 else min_rounds in
  (try
     while
       rounds () < max_rounds
       && (rounds () < needed
          || Probe.now_s () -. t0 < float_of_int seconds
          || (trace && List.length !traced < List.length !untraced))
       && !failures = []
     do
       let tr = trace && rounds () mod 2 = 1 in
       Gc.full_major ();
       let r = run o ~seed ~probe:(Probe.create ~traced:tr) in
       (* The probe's device clock closes over the round's engine; drop it
          so that every round starts from the same small live heap. *)
       r.Round.probe.Probe.sim <- (fun () -> 0.0);
       Printf.eprintf
         "perfbench: round %d%s: setup %.3f s, window %.3f s (%.3f s in calls), %d/%d committed, host speed %.3f\n%!"
         (rounds () + 1)
         (if tr then " (traced)" else "")
         r.Round.setup_s (Report.window_wall r) (Probe.host_s r.Round.probe) r.Round.committed
         r.Round.attempted (Report.speed r);
       if tr then traced := !traced @ [ r ] else untraced := !untraced @ [ r ];
       failures := r.Round.failures
     done
   with e -> failures := [ Printexc.to_string e ]);
  let all = !untraced @ !traced in
  (match all with
  | first :: rest ->
      let fp = Report.fingerprint first in
      List.iteri
        (fun i r ->
          if Report.fingerprint r <> fp then
            failures := Printf.sprintf "round %d did not replay round 1 exactly" (i + 2) :: !failures)
        rest
  | [] -> ());
  (match all with
  | r :: _ -> Printf.eprintf "perfbench: logical digest %08x\n%!" (r.Round.digest land 0xffffffff)
  | [] -> ());
  let metrics =
    if !failures <> [] then []
    else if trace then Report.per_layer ~untraced:!untraced ~traced:!traced
    else Report.end_to_end !untraced
  in
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (k, _, _) -> failures := Printf.sprintf "metric %s is not finite" k :: !failures) bad;
  if !failures <> [] then begin
    List.iteri (fun i f -> if i < 20 then prerr_endline ("check failed: " ^ f)) (List.rev !failures);
    result ~correct:false ~attempted:(attempted ()) ~failed:(List.length !failures) [];
    exit 1
  end
  else result ~correct:true ~attempted:(attempted ()) ~failed:0 metrics
