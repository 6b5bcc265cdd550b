type key = int * int (* page, slot *)

type t = {
  base : (key, bytes) Hashtbl.t;  (* durable setup state *)
  active : (int, (key * bytes option) list ref) Hashtbl.t;  (* txn -> writes, newest first *)
  mutable commits : (int * (key * bytes option) list) list;  (* newest first; writes in apply order *)
  mutable committing : int option;
  mutable durable : int;  (* commits settled by a completed barrier *)
}

type outcome = Settled | In_doubt

let create () =
  {
    base = Hashtbl.create 256;
    active = Hashtbl.create 64;
    commits = [];
    committing = None;
    durable = 0;
  }

let seed t ~page ~slot data = Hashtbl.replace t.base (page, slot) data
let begin_txn t ~txn = Hashtbl.replace t.active txn (ref [])

let note t ~txn ~page ~slot value =
  match Hashtbl.find_opt t.active txn with
  | Some ws -> ws := ((page, slot), value) :: !ws
  | None -> invalid_arg "Concurrent_oracle.note: unknown transaction"

let start_commit t ~txn = t.committing <- Some txn

let promote t txn =
  match Hashtbl.find_opt t.active txn with
  | None -> invalid_arg "Concurrent_oracle: commit of unknown transaction"
  | Some ws ->
      Hashtbl.remove t.active txn;
      t.commits <- (txn, List.rev !ws) :: t.commits

let end_commit t ~txn =
  t.committing <- None;
  promote t txn

let abort t ~txn =
  if t.committing = Some txn then t.committing <- None;
  Hashtbl.remove t.active txn

let durable t n = if n > t.durable then t.durable <- n

(* A crash mid-commit: the transaction's record was appended to the
   sequential log after every earlier commit's, so it is exactly the
   optional last entry of the commit order — the prefix sweep in [check]
   may stop before it or include it. Every other live transaction rolls
   back unconditionally. *)
let crash t =
  let outcome =
    match t.committing with
    | Some txn when Hashtbl.mem t.active txn ->
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
   The sweep applies one commit at a time and compares after each step. *)
let check t ~read ~pages ~slots =
  let raised = ref [] in
  let actual = Hashtbl.create 256 in
  List.iter
    (fun page ->
      for slot = 0 to slots - 1 do
        match (try Ok (read ~page ~slot) with e -> Error (Printexc.to_string e)) with
        | Ok v -> Option.iter (fun b -> Hashtbl.replace actual (page, slot) b) v
        | Error msg ->
            raised :=
              Printf.sprintf "page %d slot %d: read raised %s" page slot msg :: !raised
      done)
    pages;
  let state = Hashtbl.copy t.base in
  let apply (_, writes) =
    List.iter
      (fun (k, v) ->
        match v with
        | Some b -> Hashtbl.replace state k b
        | None -> Hashtbl.remove state k)
      writes
  in
  let diffs () =
    let ds = ref [] in
    List.iter
      (fun page ->
        for slot = 0 to slots - 1 do
          let expect = Hashtbl.find_opt state (page, slot) in
          let found = Hashtbl.find_opt actual (page, slot) in
          if expect <> found then
            ds :=
              Printf.sprintf "page %d slot %d: expected %s, found %s" page slot
                (show expect) (show found)
              :: !ds
        done)
      pages;
    List.rev !ds
  in
  let commits = List.rev t.commits in
  let rec skip k = function
    | c :: rest when k < t.durable ->
        apply c;
        skip (k + 1) rest
    | rest -> rest
  in
  let rest = skip 0 commits in
  let rec sweep rest =
    match (diffs (), rest) with
    | [], _ -> []
    | ds, [] ->
        Printf.sprintf
          "no commit-prefix state matches (durable watermark %d, %d commits); \
           diffs against the full commit order follow"
          t.durable (List.length commits)
        :: ds
    | _, c :: rest ->
        apply c;
        sweep rest
  in
  match !raised with [] -> sweep rest | rs -> List.rev rs @ sweep rest
