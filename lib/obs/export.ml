module Json = Ipl_util.Json

let trace_json tracer =
  Json.List
    (List.rev
       (Tracer.fold
          (fun acc (e : Tracer.entry) ->
            Json.Obj
              (("seq", Json.Int e.seq)
              :: ("time_s", Json.Float e.time)
              :: ("kind", Json.String (Event.kind e.event))
              :: List.map (fun (k, v) -> (k, Json.Int v)) (Event.fields e.event))
            :: acc)
          tracer []))

let trace_csv tracer =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "seq,time_s,kind,args\n";
  Tracer.iter
    (fun (e : Tracer.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%.9f,%s,%s\n" e.seq e.time (Event.kind e.event)
           (String.concat ";"
              (List.map
                 (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                 (Event.fields e.event)))))
    tracer;
  Buffer.contents buf

let metrics_csv metrics =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,type,count,sum_s,min_s,max_s,mean_s,p50_s,p90_s,p99_s\n";
  List.iter
    (fun name ->
      match Metrics.find metrics name with
      | None -> ()
      | Some (`Counter n) ->
          Buffer.add_string buf (Printf.sprintf "%s,counter,%d,,,,,,,\n" name n)
      | Some (`Histogram h) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,histogram,%d,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f\n" name
               (Metrics.Latency.count h) (Metrics.Latency.sum h)
               (Metrics.Latency.min_seconds h) (Metrics.Latency.max_seconds h)
               (Metrics.Latency.mean h)
               (Metrics.Latency.percentile h 0.50)
               (Metrics.Latency.percentile h 0.90)
               (Metrics.Latency.percentile h 0.99)))
    (Metrics.names metrics);
  Buffer.contents buf

let to_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
