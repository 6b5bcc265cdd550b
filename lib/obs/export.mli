(** JSON and CSV exporters for traces, and CSV for metrics snapshots
    (their JSON is {!Metrics.to_json}). *)

val metrics_csv : Metrics.t -> string
(** One row per metric:
    [name,type,count,sum_s,min_s,max_s,mean_s,p50_s,p90_s,p99_s] (the
    latency columns are empty for counters). *)

val trace_json : Tracer.t -> Ipl_util.Json.t
(** [List] of entry objects [{seq, time_s, kind, <event fields>}],
    oldest retained entry first. *)

val trace_csv : Tracer.t -> string
(** Rows [seq,time_s,kind,args] with the event payload as
    semicolon-separated [field=value] pairs. *)

val to_file : string -> string -> unit
(** [to_file path contents] writes (or overwrites) a file. *)
