module Session = Ipl_txn.Session

type key = int * int (* page, slot *)

type t = {
  base : (key, bytes) Hashtbl.t;  (* durable setup state *)
  latest : (key, bytes) Hashtbl.t;  (* base + every commit, for [current] *)
  active : (int, (key * bytes option) list ref) Hashtbl.t;  (* txn -> writes, newest first *)
  mutable commits : (key * bytes option) list list;  (* newest first; writes in apply order *)
  mutable committing : int option;
  mutable durable : int;  (* commits settled by a completed barrier *)
}

type outcome = Settled | In_doubt

let create () =
  {
    base = Hashtbl.create 256;
    latest = Hashtbl.create 256;
    active = Hashtbl.create 64;
    commits = [];
    committing = None;
    durable = 0;
  }

let seed t ~page ~slot data =
  Hashtbl.replace t.base (page, slot) data;
  Hashtbl.replace t.latest (page, slot) data

let apply state writes =
  List.iter
    (fun (k, v) ->
      match v with Some b -> Hashtbl.replace state k b | None -> Hashtbl.remove state k)
    writes

let writes t txn =
  match Hashtbl.find_opt t.active txn with
  | Some ws -> ws
  | None -> invalid_arg "Oracle: unknown transaction"

let promote t txn =
  let ws = List.rev !(writes t txn) in
  Hashtbl.remove t.active txn;
  apply t.latest ws;
  t.commits <- ws :: t.commits

let observe t (e : Session.event) =
  match e with
  | Begin txn -> Hashtbl.replace t.active txn (ref [])
  | Write { txn; page; slot; data } ->
      let ws = writes t txn in
      ws := ((page, slot), data) :: !ws
  | Commit_start txn -> t.committing <- Some txn
  | Committed txn ->
      t.committing <- None;
      promote t txn
  | Aborted txn ->
      if t.committing = Some txn then t.committing <- None;
      Hashtbl.remove t.active txn
  | Durable n -> if n > t.durable then t.durable <- n
  | Read _ -> ()

let current t ~txn ~page ~slot =
  match List.assoc_opt (page, slot) !(writes t txn) with
  | Some v -> v
  | None -> Hashtbl.find_opt t.latest (page, slot)

(* A crash mid-commit: the transaction's record was appended to the
   sequential log after every earlier commit's, so it is exactly the
   optional last entry of the commit order — the prefix sweep in [check]
   may stop before it or include it. A commit with nothing written
   changes no state either way and is simply dropped. Every other live
   transaction rolls back unconditionally. *)
let crash t =
  let outcome =
    match t.committing with
    | Some txn when Hashtbl.mem t.active txn && !(writes t txn) <> [] ->
        promote t txn;
        In_doubt
    | _ -> Settled
  in
  t.committing <- None;
  Hashtbl.reset t.active;
  outcome

let show = function
  | None -> "<absent>"
  | Some b -> Printf.sprintf "%d bytes (%08x)" (Bytes.length b) (Hashtbl.hash b)

(* The recovered database must equal base + commits[0..k] for some k in
   [durable, n]: at least everything a completed barrier settled, at most
   everything that ever committed, and nothing in between may be skipped
   (the transaction log is sequential, so durability is prefix-closed).
   The sweep applies one commit at a time and compares after each step;
   when none matches, the differences from the watermark state are the
   report. *)
let check t ~read ~pages ~slots =
  let found =
    List.concat_map
      (fun page ->
        List.init slots (fun slot ->
            (page, slot, try Ok (read ~page ~slot) with e -> Error (Printexc.to_string e))))
      pages
  in
  let state = Hashtbl.copy t.base in
  let differs (page, slot, actual) =
    match actual with Error _ -> true | Ok v -> v <> Hashtbl.find_opt state (page, slot)
  in
  let describe (page, slot, actual) =
    match actual with
    | Error msg -> Printf.sprintf "page %d slot %d: read raised %s" page slot msg
    | Ok v ->
        Printf.sprintf "page %d slot %d: expected %s, found %s" page slot
          (show (Hashtbl.find_opt state (page, slot)))
          (show v)
  in
  let rec sweep k = function
    | c :: rest when k < t.durable ->
        apply state c;
        sweep (k + 1) rest
    | rest ->
        let report = List.map describe (List.filter differs found) in
        let rec extend = function
          | _ when not (List.exists differs found) -> []
          | [] -> report
          | c :: rest ->
              apply state c;
              extend rest
        in
        extend rest
  in
  sweep 0 (List.rev t.commits)
