module Engine = Ipl_core.Ipl_engine

type error =
  | Conflict of { page : int; slot : int }
  | Doomed
  | Engine_error of Engine.error

let error_to_string = function
  | Conflict { page; slot } ->
      Printf.sprintf "write-write conflict on page %d slot %d" page slot
  | Doomed -> "transaction doomed by an earlier conflict"
  | Engine_error e -> Engine.error_to_string e

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* One write of one record: the undo side of the eager-apply design. The
   engine already holds the AFTER image (writes are applied as they
   happen); the chain node remembers what the write replaced, so readers
   whose snapshot predates the write can reconstruct their version by
   walking befores newest-to-oldest. *)
type version = {
  writer : int;
  mutable commit_ts : int option;  (* None while the writer is active *)
  before : bytes option;  (* None: the slot was empty before this write *)
}

type txn = {
  id : int;
  etx : Engine.txn;
  snapshot : int;  (* highest commit_ts visible to this transaction *)
  mutable writes : (int * int) list;  (* slots with a chain node of ours *)
  mutable doomed : bool;
  mutable rolled_back : bool;  (* engine-side writes already undone *)
}

type stats = {
  commits : int;
  aborts : int;
  conflicts : int;
  barriers : int;
  batched_commits : int;
  max_batch : int;
  versions_created : int;
  versions_gced : int;
  versions_live : int;
}

type t = {
  engine : Engine.t;
  chains : (int * int, version list ref) Hashtbl.t;
  active : (int, txn) Hashtbl.t;
  mutable commit_ts : int;
  mutable next_id : int;
  mutable flushed : int;  (* commits made durable by a batch barrier *)
  mutable commits : int;
  mutable aborts : int;
  mutable conflicts : int;
  mutable barriers : int;
  mutable batched : int;
  mutable max_batch : int;
  mutable created : int;
  mutable gced : int;
}

let create ?(group_window = 1) engine =
  Engine.set_group_commit engine (max 1 group_window);
  {
    engine;
    chains = Hashtbl.create 1024;
    active = Hashtbl.create 64;
    commit_ts = 0;
    next_id = 0;
    flushed = 0;
    commits = 0;
    aborts = 0;
    conflicts = 0;
    barriers = 0;
    batched = 0;
    max_batch = 0;
    created = 0;
    gced = 0;
  }

let engine t = t.engine
let txn_id tx = tx.id
let pending t = Engine.pending_commits t.engine
let flushed_commits t = t.flushed

let stats t =
  {
    commits = t.commits;
    aborts = t.aborts;
    conflicts = t.conflicts;
    barriers = t.barriers;
    batched_commits = t.batched;
    max_batch = t.max_batch;
    versions_created = t.created;
    versions_gced = t.gced;
    versions_live = Hashtbl.fold (fun _ c acc -> acc + List.length !c) t.chains 0;
  }

(* ---------------- version chains ---------------- *)

let chain t key =
  match Hashtbl.find_opt t.chains key with
  | Some c -> c
  | None ->
      let c = ref [] in
      Hashtbl.replace t.chains key c;
      c

let push_version t tx ~page ~slot before =
  let c = chain t (page, slot) in
  c := { writer = tx.id; commit_ts = None; before } :: !c;
  t.created <- t.created + 1;
  tx.writes <- (page, slot) :: tx.writes

(* First-updater-wins / first-committer-wins, checked eagerly: a slot
   whose newest version belongs to another live transaction, or was
   committed after our snapshot, cannot be written. The eager check also
   preserves the engine invariant that no two ACTIVE transactions touch
   the same record (its delta replay depends on it). *)
let write_conflict t tx ~page ~slot =
  match Hashtbl.find_opt t.chains (page, slot) with
  | None | Some { contents = [] } -> false
  | Some { contents = v :: _ } ->
      v.writer <> tx.id
      && (match v.commit_ts with None -> true | Some ts -> ts > tx.snapshot)

(* Undo a transaction's engine-side writes and pop its chain nodes. Our
   nodes are uncommitted, and the single-active-writer invariant makes
   them the newest entries of their chains. *)
let rollback t tx =
  if tx.rolled_back then Ok ()
  else begin
    tx.rolled_back <- true;
    let r = Engine.abort t.engine tx.etx in
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.chains key with
        | None -> ()
        | Some c ->
            c := List.filter (fun (v : version) -> v.writer <> tx.id) !c;
            if !c = [] then Hashtbl.remove t.chains key)
      tx.writes;
    tx.writes <- [];
    r
  end

(* Dooming a transaction rolls its engine writes back {e eagerly}, not at
   the client's [abort]: an insert may have landed on a slot freed by a
   concurrent uncommitted delete, and the engine's per-transaction abort
   replay only works while no two live transactions hold records on one
   slot. The zombie transaction keeps its snapshot (pinning the GC
   watermark) until the client aborts it. *)
let conflict t tx ~page ~slot =
  t.conflicts <- t.conflicts + 1;
  tx.doomed <- true;
  match rollback t tx with
  | Ok () -> Error (Conflict { page; slot })
  | Error e -> Error (Engine_error e)

(* ---------------- transactions ---------------- *)

let begin_txn t =
  match Engine.begin_txn t.engine with
  | Error e -> Error (Engine_error e)
  | Ok etx ->
      t.next_id <- t.next_id + 1;
      let tx =
        {
          id = t.next_id;
          etx;
          snapshot = t.commit_ts;
          writes = [];
          doomed = false;
          rolled_back = false;
        }
      in
      Hashtbl.replace t.active tx.id tx;
      Ok tx

let raw_read t ~page ~slot =
  match Engine.read t.engine ~page ~slot with
  | Ok v -> Ok v
  | Error e -> Error (Engine_error e)

let update t tx ~page ~slot data =
  if tx.doomed then Error Doomed
  else if write_conflict t tx ~page ~slot then conflict t tx ~page ~slot
  else
    match raw_read t ~page ~slot with
    | Error _ as e -> e
    | Ok before -> (
        match Engine.update t.engine ~tx:tx.etx ~page ~slot data with
        | Ok () ->
            push_version t tx ~page ~slot before;
            Ok ()
        | Error e -> Error (Engine_error e))

let insert t tx ~page data =
  if tx.doomed then Error Doomed
  else
    match Engine.insert t.engine ~tx:tx.etx ~page data with
    | Error e -> Error (Engine_error e)
    | Ok slot ->
        (* The engine may hand out a slot freed by a concurrent, still
           uncommitted delete (or one committed past our snapshot). The
           write already happened, so record it in the chain either way —
           the caller aborts the doomed transaction and the rollback pops
           it — but report the collision as the conflict it is. *)
        if write_conflict t tx ~page ~slot then begin
          push_version t tx ~page ~slot None;
          conflict t tx ~page ~slot
        end
        else begin
          push_version t tx ~page ~slot None;
          Ok slot
        end

let delete t tx ~page ~slot =
  if tx.doomed then Error Doomed
  else if write_conflict t tx ~page ~slot then conflict t tx ~page ~slot
  else
    match raw_read t ~page ~slot with
    | Error _ as e -> e
    | Ok before -> (
        match Engine.delete t.engine ~tx:tx.etx ~page ~slot with
        | Ok () ->
            push_version t tx ~page ~slot before;
            Ok ()
        | Error e -> Error (Engine_error e))

(* Snapshot read: start from the engine's current image (every write is
   eagerly applied) and walk the chain newest-to-oldest, substituting the
   before-image of every version this snapshot must not see. Stop at the
   first visible version: its effect is already part of the accumulated
   value. *)
let visible_value ~visible current versions =
  let rec walk value = function
    | [] -> value
    | v :: older -> if visible v then value else walk v.before older
  in
  walk current versions

let read t tx ~page ~slot =
  if tx.doomed then Error Doomed
  else
    match raw_read t ~page ~slot with
  | Error _ as e -> e
  | Ok current -> (
      match Hashtbl.find_opt t.chains (page, slot) with
      | None -> Ok current
      | Some c ->
          let visible v =
            v.writer = tx.id
            || match v.commit_ts with Some ts -> ts <= tx.snapshot | None -> false
          in
          Ok (visible_value ~visible current !c))

(* Latest-committed view, no transaction: what a snapshot taken right now
   would see. Hides every live transaction's in-flight writes. *)
let read_committed t ~page ~slot =
  match raw_read t ~page ~slot with
  | Error _ as e -> e
  | Ok current -> (
      match Hashtbl.find_opt t.chains (page, slot) with
      | None -> Ok current
      | Some c ->
          let visible (v : version) = v.commit_ts <> None in
          Ok (visible_value ~visible current !c))

(* ---------------- version GC ---------------- *)

(* Every version at or below the watermark (the oldest snapshot any live
   transaction can still read from) is visible to every present and
   future reader, so its before-image can never be needed again. Chain
   walks don't need the dropped node as a stop marker either: a walk that
   substituted a newer before-image ends with exactly that value when the
   list runs out. *)
let watermark t =
  Hashtbl.fold (fun _ tx acc -> min acc tx.snapshot) t.active t.commit_ts

let gc t =
  let wm = watermark t in
  let dropped = ref 0 in
  let stale = ref [] in
  Hashtbl.iter
    (fun key c ->
      let keep =
        List.filter
          (fun (v : version) -> match v.commit_ts with Some ts when ts <= wm -> false | _ -> true)
          !c
      in
      let d = List.length !c - List.length keep in
      if d > 0 then begin
        dropped := !dropped + d;
        c := keep
      end;
      if keep = [] then stale := key :: !stale)
    t.chains;
  List.iter (Hashtbl.remove t.chains) !stale;
  t.gced <- t.gced + !dropped;
  !dropped

(* ---------------- group commit ---------------- *)

(* The engine owns the commit window; this layer only observes a batch
   of [batch] commits settling and trims the version chains behind it. *)
let settled t batch =
  t.barriers <- t.barriers + 1;
  t.batched <- t.batched + batch;
  t.max_batch <- max t.max_batch batch;
  t.flushed <- t.flushed + batch;
  ignore (gc t : int)

let flush t =
  let batch = pending t in
  if batch = 0 then Ok ()
  else
    match Engine.flush_commits t.engine with
    | Error e -> Error (Engine_error e)
    | Ok () ->
        settled t batch;
        Ok ()

let commit t tx =
  if tx.doomed then Error Doomed
  else begin
    Hashtbl.remove t.active tx.id;
    t.commit_ts <- t.commit_ts + 1;
    let ts = t.commit_ts in
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.chains key with
        | None -> ()
        | Some c ->
            List.iter
              (fun v -> if v.writer = tx.id && v.commit_ts = None then v.commit_ts <- Some ts)
              !c)
      tx.writes;
    let batch = pending t + 1 in
    match Engine.commit t.engine tx.etx with
    | Error e -> Error (Engine_error e)
    | Ok () ->
        t.commits <- t.commits + 1;
        (* The commit that fills the engine's window flushes the batch. *)
        if pending t = 0 then settled t batch;
        Ok ()
  end

let abort t tx =
  Hashtbl.remove t.active tx.id;
  tx.doomed <- true;
  let rolled_back = rollback t tx in
  t.aborts <- t.aborts + 1;
  match rolled_back with Ok () -> Ok () | Error e -> Error (Engine_error e)

(* Fold version GC into maintenance merging: trim the chains first (a
   merge is the natural idle moment, and the watermark only moves at
   commit/abort boundaries anyway), then let the storage layer merge the
   erase units whose log regions are exhausted. *)
let compact t ~max_merges =
  ignore (gc t : int);
  match Engine.compact t.engine ~max_merges with
  | Ok n -> Ok n
  | Error e -> Error (Engine_error e)

let checkpoint t =
  match flush t with
  | Error _ as e -> e
  | Ok () -> (
      match Engine.checkpoint t.engine with
      | Ok () -> Ok ()
      | Error e -> Error (Engine_error e))
