module Engine = Ipl_core.Ipl_engine

type op =
  | Update of { page : int; slot : int; data : bytes }
  | Insert of { page : int; data : bytes }
  | Delete of { page : int; slot : int }

type plan = { ops : op list; aborting : bool; reads : (int * int) list }

type event =
  | Begin of int
  | Write of { txn : int; page : int; slot : int; data : bytes option }
  | Commit_start of int
  | Committed of int
  | Aborted of int
  | Durable of int
  | Read of bytes option

type session_stats = {
  session : int;
  commits : int;
  sim_latencies : float list;
  host_latency_s : float;
}

type outcome = {
  committed : int;
  aborted : int;
  conflict_aborts : int;
  mvcc : Mvcc.stats;
  per_session : session_stats list;
}

(* One client session's position in its transaction stream. [Await_flush]
   parks the session between its commit and the group barrier that makes
   it durable — the wait that lets commits pile into one batch. *)
type state =
  | Idle
  | In_txn of { tx : Mvcc.txn; plan : plan; remaining : op list; conflicted : bool }
  | Await_flush of { seq : int; reads : (int * int) list }
  | Reading of (int * int) list
  | Finished

type session = {
  sid : int;
  mutable next_plan : int;
  mutable state : state;
  (* Commit latency, begin -> observed durable. The simulated side is a
     pure function of the schedule (the device clock only advances on
     flash operations); the host side is wall time and only ever feeds
     the machine-dependent report section. *)
  mutable begin_sim : float;
  mutable begin_host : float;
  mutable commits : int;
  mutable sim_latencies : float list;  (* newest first *)
  mutable host_latency_s : float;
}

let fail ctx = function
  | Ok v -> v
  | Error e -> failwith ("Session." ^ ctx ^ ": " ^ Mvcc.error_to_string e)

(* Treated like the serial benchmark loop treats its engine errors: a
   page-full insert or an update of a dead slot is part of the workload,
   not a failure. Conflicts doom the transaction and are handled at the
   end of its op list; anything engine-fatal escalates. *)
let tolerate ctx = function
  | Ok _
  | Error
      (Mvcc.Conflict _ | Mvcc.Doomed
      | Mvcc.Engine_error
          (Engine.Page_full | Engine.No_such_slot | Engine.Record_too_large)) ->
      ()
  | Error e -> failwith ("Session." ^ ctx ^ ": " ^ Mvcc.error_to_string e)

let run ?(compact_every = 0) ?(observe = ignore) ~sessions ~plans engine =
  if sessions < 1 then invalid_arg "Session.run: sessions < 1";
  (* One commit window per rotation: a full round of commits fills it. *)
  let m = Mvcc.create ~group_window:sessions engine in
  let committed = ref 0 and aborted = ref 0 and conflict_aborts = ref 0 in
  let finished_txns = ref 0 and durable = ref 0 in
  let clients =
    Array.init sessions (fun sid ->
        {
          sid;
          next_plan = sid;
          state = Idle;
          begin_sim = 0.;
          begin_host = 0.;
          commits = 0;
          sim_latencies = [];
          host_latency_s = 0.;
        })
  in
  (* A transaction's post-commit reads run against the latest committed
     state, exactly where the serial loop reads after its commit. *)
  let do_read (page, slot) =
    observe (Read (fail "read" (Mvcc.read_committed m ~page ~slot)))
  in
  (* Report the durable watermark after every call that may have settled
     a batch: a commit that filled the window, a flush, a compaction. *)
  let settle () =
    let n = Mvcc.flushed_commits m in
    if n > !durable then begin
      durable := n;
      observe (Durable n)
    end
  in
  let finish_txn () =
    incr finished_txns;
    if compact_every > 0 && !finished_txns mod compact_every = 0 then begin
      ignore (fail "compact" (Mvcc.compact m ~max_merges:1) : int);
      settle ()
    end
  in
  (* Advance one session by one step. Returns [true] if the step made
     progress (a parked session waiting for the group barrier does not). *)
  let step s =
    match s.state with
    | Finished -> false
    | Idle ->
        if s.next_plan >= Array.length plans then begin
          s.state <- Finished;
          false
        end
        else begin
          let plan = plans.(s.next_plan) in
          s.next_plan <- s.next_plan + sessions;
          s.begin_sim <- Engine.elapsed engine;
          s.begin_host <- Ipl_util.Clock.now_s ();
          let tx = fail "begin" (Mvcc.begin_txn m) in
          observe (Begin (Mvcc.txn_id tx));
          s.state <- In_txn { tx; plan; remaining = plan.ops; conflicted = false };
          true
        end
    | In_txn { tx; plan; remaining = op :: rest; conflicted } ->
        let txn = Mvcc.txn_id tx in
        let r =
          match op with
          | Update { page; slot; data } ->
              Result.map
                (fun () -> Write { txn; page; slot; data = Some data })
                (Mvcc.update m tx ~page ~slot data)
          | Insert { page; data } ->
              Result.map
                (fun slot -> Write { txn; page; slot; data = Some data })
                (Mvcc.insert m tx ~page data)
          | Delete { page; slot } ->
              Result.map
                (fun () -> Write { txn; page; slot; data = None })
                (Mvcc.delete m tx ~page ~slot)
        in
        tolerate "op" r;
        Result.iter observe r;
        let conflicted =
          conflicted
          || (match r with Error (Mvcc.Conflict _ | Mvcc.Doomed) -> true | _ -> false)
        in
        (* A doomed transaction cannot commit; skip the rest of its ops. *)
        let remaining = if conflicted then [] else rest in
        s.state <- In_txn { tx; plan; remaining; conflicted };
        true
    | In_txn { tx; plan; remaining = []; conflicted } ->
        let txn = Mvcc.txn_id tx in
        (if conflicted || plan.aborting then begin
           fail "abort" (Mvcc.abort m tx);
           incr (if conflicted then conflict_aborts else aborted);
           observe (Aborted txn);
           s.state <- Reading plan.reads
         end
         else begin
           observe (Commit_start txn);
           fail "commit" (Mvcc.commit m tx);
           incr committed;
           observe (Committed txn);
           settle ();
           (* Resume once the group barrier has settled this commit. *)
           s.state <- Await_flush { seq = !committed; reads = plan.reads }
         end);
        true
    | Await_flush { seq; reads } ->
        if Mvcc.flushed_commits m >= seq then begin
          (* Begin -> durable, observed at the step where the session
             notices its batch settled — the latency a client of this
             group-commit scheduler actually experiences. *)
          s.commits <- s.commits + 1;
          s.sim_latencies <- (Engine.elapsed engine -. s.begin_sim) :: s.sim_latencies;
          s.host_latency_s <- s.host_latency_s +. (Ipl_util.Clock.now_s () -. s.begin_host);
          s.state <- Reading reads;
          true
        end
        else false
    | Reading (r :: rest) ->
        do_read r;
        s.state <- (match rest with [] -> Idle | _ -> Reading rest);
        if rest = [] then finish_txn ();
        true
    | Reading [] ->
        s.state <- Idle;
        finish_txn ();
        true
  in
  let all_done () = Array.for_all (fun s -> s.state = Finished) clients in
  while not (all_done ()) do
    let progressed = ref false in
    Array.iter (fun s -> if step s then progressed := true) clients;
    (* Every runnable session is parked at the barrier: the batch cannot
       grow any further this round, so settle it now even though the
       window isn't full. *)
    if (not !progressed) && not (all_done ()) then
      if Mvcc.pending m > 0 then begin
        fail "flush" (Mvcc.flush m);
        settle ()
      end
      else
        (* Cannot happen: a non-finished session either progresses or
           waits on a pending commit. Guard against a scheduler bug
           turning into a spin. *)
        failwith "Session.run: deadlock with no pending commits"
  done;
  fail "flush" (Mvcc.flush m);
  settle ();
  {
    committed = !committed;
    aborted = !aborted;
    conflict_aborts = !conflict_aborts;
    mvcc = Mvcc.stats m;
    per_session =
      Array.to_list
        (Array.map
           (fun s ->
             {
               session = s.sid;
               commits = s.commits;
               sim_latencies = List.rev s.sim_latencies;
               host_latency_s = s.host_latency_s;
             })
           clients);
  }
