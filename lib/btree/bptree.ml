module Engine = Ipl_core.Ipl_engine
module Page = Storage.Page

(* Node encoding, all within ordinary slotted pages:
     slot 0          : meta record [magic:u8 = 0xB7][is_leaf:u8][next_leaf:u32]
     slots 1..       : entry records [key:i64][value:i64]
   Internal-node entries are (separator, child-page) pairs; the leftmost
   separator is min_int so a child always exists for any key. The header
   page (the tree's identity) holds a single record with the root page id. *)

type t = { engine : Engine.t; header : int }

let no_leaf = 0xFFFFFFFF
let meta_magic = 0xB7

let encode_meta ~is_leaf ~next_leaf =
  let b = Bytes.create 6 in
  Bytes.set_uint8 b 0 meta_magic;
  Bytes.set_uint8 b 1 (if is_leaf then 1 else 0);
  Bytes.set_int32_le b 2 (Int32.of_int next_leaf);
  b

let entry_size = 16

let encode_entry key value =
  let b = Bytes.create entry_size in
  Bytes.set_int64_le b 0 (Int64.of_int key);
  Bytes.set_int64_le b 8 (Int64.of_int value);
  b

type node = {
  is_leaf : bool;
  next_leaf : int;  (* no_leaf if none *)
  entries : (int * int * int) array;  (* key, value, slot — sorted *)
}

let fail_on_error = function
  | Ok x -> x
  | Error e -> failwith ("Bptree: unexpected engine error: " ^ Engine.error_to_string e)

(* [(is_leaf, next_leaf)] from a pinned node's meta record, read in place. *)
let meta p =
  let off = Page.record_offset p 0 in
  if off < 0 then failwith "Bptree: missing node meta";
  let m = Page.to_bytes p in
  if Bytes.get_uint8 m off <> meta_magic then failwith "Bptree: bad node magic";
  (Bytes.get_uint8 m (off + 1) = 1, Int32.to_int (Bytes.get_int32_le m (off + 2)) land 0xFFFFFFFF)

let entry_key b off = Int64.to_int (Bytes.get_int64_le b off)
let entry_value b off = Int64.to_int (Bytes.get_int64_le b (off + 8))

(* [iter_entries f p] applies [f key value slot] to every entry of a pinned
   node, in slot order, reading the page image in place. *)
let iter_entries f p =
  let b = Page.to_bytes p in
  Page.iter_in_place
    (fun slot off _ -> if slot <> 0 then f (entry_key b off) (entry_value b off) slot)
    p

let compare_entry (k1, v1, s1) (k2, v2, s2) =
  let c = Int.compare k1 k2 in
  if c <> 0 then c
  else
    let c = Int.compare v1 v2 in
    if c <> 0 then c else Int.compare s1 s2

(* A sorted copy of a whole node, for the callers that need one. *)
let node_of_page p =
  let is_leaf, next_leaf = meta p in
  let entries = ref [] in
  iter_entries (fun k v slot -> entries := (k, v, slot) :: !entries) p;
  let entries = Array.of_list !entries in
  Array.sort compare_entry entries;
  { is_leaf; next_leaf; entries }

let read_node t pid = fail_on_error (Engine.with_page t.engine pid node_of_page)

let new_node t ~tx ~is_leaf ~next_leaf =
  let pid = fail_on_error (Engine.allocate_page t.engine) in
  (match Engine.insert t.engine ~tx ~page:pid (encode_meta ~is_leaf ~next_leaf) with
  | Ok 0 -> ()
  | Ok _ -> failwith "Bptree: meta not at slot 0"
  | Error e -> failwith ("Bptree: " ^ Engine.error_to_string e));
  pid

let set_next_leaf t ~tx pid next =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int next);
  fail_on_error (Engine.update_range t.engine ~tx ~page:pid ~slot:0 ~offset:2 b)

let root t =
  fail_on_error
  @@ Engine.with_page t.engine t.header (fun p ->
      let off = Page.record_offset p 0 in
      if off < 0 then failwith "Bptree: missing header record";
      entry_key (Page.to_bytes p) off)

let set_root t ~tx pid =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int pid);
  fail_on_error (Engine.update t.engine ~tx ~page:t.header ~slot:0 b)

let create engine =
  let header = fail_on_error (Engine.allocate_page engine) in
  let t = { engine; header } in
  let root = new_node t ~tx:Engine.no_txn ~is_leaf:true ~next_leaf:no_leaf in
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int root);
  (match Engine.insert engine ~tx:Engine.no_txn ~page:header b with
  | Ok 0 -> ()
  | _ -> failwith "Bptree: header init failed");
  t

let attach engine ~header = { engine; header }
let header_page t = t.header

(* Node search. A node's keys are unique ([insert] refuses duplicates and
   [check_invariants] demands strictly increasing keys), so the slot
   whose key equals, or is nearest to, the search key is the only
   answer, whatever order the slots are in. The searches run on the
   pinned page in place, from slot 1 (slot 0 is the meta record). *)

let entry_value_at p slot = entry_value (Page.to_bytes p) (Page.record_offset p slot)

(* Child of a pinned internal node covering [key]: the child of the
   greatest separator <= key. The leftmost separator is min_int, so one
   exists; failing that, the least entry's. *)
let child_for p key =
  let slot = Page.nearest_int64 p ~from:1 key ~below:true in
  let slot = if slot >= 0 then slot else Page.nearest_int64 p ~from:1 min_int ~below:false in
  if slot < 0 then failwith "Bptree: empty internal node" else entry_value_at p slot

(* [(slot, value)] of the entry of a pinned leaf with this key. Entries
   are usually in slot order (rows arrive in key order, and [split]
   copies in sorted order), so a binary search, which only ever returns
   a slot holding [key], finds most hits; the scan settles the rest. *)
let leaf_find p key =
  let slot = Page.find_sorted_int64 p ~from:1 key in
  let slot = if slot >= 0 then slot else Page.find_int64 p ~from:1 key in
  if slot < 0 then None else Some (slot, entry_value_at p slot)

(* Least [(key, value)] of a pinned leaf with key >= [key]. *)
let leaf_next_ge p key =
  let slot = Page.nearest_int64 p ~from:1 key ~below:false in
  if slot < 0 then None
  else
    let off = Page.record_offset p slot and b = Page.to_bytes p in
    Some (entry_key b off, entry_value b off)

(* Whether a pinned leaf lacks room for one more entry. Only the pin
   count depends on this: without a copy, [split] reads the node
   itself. *)
let leaf_full p = not (Page.has_room p entry_size)

(* Walk from the root to the leaf covering [key], searching each node in
   place on its pinned page, and apply [leaf] to the leaf's page. Returns
   the leaf's page id, its ancestors (nearest parent first) and [leaf]'s
   result. Scans pass [~leaf:ignore] and walk the chain from that id. *)
let descend t key ~leaf =
  let rec go pid path =
    let step =
      fail_on_error
      @@ Engine.with_page t.engine pid (fun p ->
          if fst (meta p) then Either.Left (leaf p) else Either.Right (child_for p key))
    in
    match step with
    | Either.Left r -> (pid, path, r)
    | Either.Right child -> go child (pid :: path)
  in
  go (root t) []

(* Apply [f] to the pinned pages of the leaf chain from [pid] on, while it
   returns true. *)
let rec walk_leaves t pid f =
  let next =
    fail_on_error
    @@ Engine.with_page t.engine pid (fun p ->
        let _, next_leaf = meta p in
        if f p then next_leaf else no_leaf)
  in
  if next <> no_leaf then walk_leaves t next f

let find t key =
  let _, _, hit = descend t key ~leaf:(fun p -> leaf_find p key) in
  Option.map snd hit

let mem t key = find t key <> None

let next_ge t key =
  let pid, _, () = descend t key ~leaf:ignore in
  let hit = ref None in
  walk_leaves t pid (fun p ->
      hit := leaf_next_ge p key;
      !hit = None);
  !hit

(* Move the upper half of a node's entries into a fresh sibling and return
   (separator, new page id). [node] is the node's sorted copy, if the
   caller already took one. *)
let split t ~tx ?node pid =
  let node = match node with Some node -> node | None -> read_node t pid in
  let n = Array.length node.entries in
  assert (n >= 2);
  let mid = n / 2 in
  let sep, _, _ = node.entries.(mid) in
  if node.is_leaf then begin
    let right = new_node t ~tx ~is_leaf:true ~next_leaf:node.next_leaf in
    for i = mid to n - 1 do
      let k, v, slot = node.entries.(i) in
      fail_on_error (Result.map (fun (_ : int) -> ()) (Engine.insert t.engine ~tx ~page:right (encode_entry k v)));
      fail_on_error (Engine.delete t.engine ~tx ~page:pid ~slot)
    done;
    set_next_leaf t ~tx pid right;
    (sep, right)
  end
  else begin
    (* The separator moves up: the right node's leftmost child keeps the
       min_int sentinel key. *)
    let right = new_node t ~tx ~is_leaf:false ~next_leaf:no_leaf in
    let _, child_mid, slot_mid = node.entries.(mid) in
    fail_on_error
      (Result.map (fun (_ : int) -> ())
         (Engine.insert t.engine ~tx ~page:right (encode_entry min_int child_mid)));
    fail_on_error (Engine.delete t.engine ~tx ~page:pid ~slot:slot_mid);
    for i = mid + 1 to n - 1 do
      let k, v, slot = node.entries.(i) in
      fail_on_error
        (Result.map (fun (_ : int) -> ()) (Engine.insert t.engine ~tx ~page:right (encode_entry k v)));
      fail_on_error (Engine.delete t.engine ~tx ~page:pid ~slot)
    done;
    (sep, right)
  end

(* Insert a separator entry into the ancestors after a split of [child_pid]
   (whose path to the root is [path], nearest parent first). *)
let rec insert_sep t ~tx ~path ~child_pid sep new_pid =
  match path with
  | [] ->
      (* child_pid was the root: grow the tree. *)
      let new_root = new_node t ~tx ~is_leaf:false ~next_leaf:no_leaf in
      fail_on_error
        (Result.map (fun (_ : int) -> ())
           (Engine.insert t.engine ~tx ~page:new_root (encode_entry min_int child_pid)));
      fail_on_error
        (Result.map (fun (_ : int) -> ())
           (Engine.insert t.engine ~tx ~page:new_root (encode_entry sep new_pid)));
      set_root t ~tx new_root
  | parent :: rest -> (
      match Engine.insert t.engine ~tx ~page:parent (encode_entry sep new_pid) with
      | Ok _ -> ()
      | Error _ ->
          (* Parent full: split it, then retry into the correct half. *)
          let psep, pnew = split t ~tx parent in
          insert_sep t ~tx ~path:rest ~child_pid:parent psep pnew;
          let target = if sep >= psep then pnew else parent in
          fail_on_error
            (Result.map (fun (_ : int) -> ())
               (Engine.insert t.engine ~tx ~page:target (encode_entry sep new_pid))))

(* Descend to the leaf for [key] and probe it: [`Present slot], or
   [`Absent node] where [node] is the sorted copy a split of the leaf
   will need if it has no room for the entry, taken now rather than by
   pinning the leaf again. *)
let probe t key =
  descend t key ~leaf:(fun p ->
      match leaf_find p key with
      | Some (slot, _) -> `Present slot
      | None -> `Absent (if leaf_full p then Some (node_of_page p) else None))

(* Insert an entry for the absent [key] into the probed leaf [pid]. *)
let rec insert_absent t ~tx key value pid path node =
  match Engine.insert t.engine ~tx ~page:pid (encode_entry key value) with
  | Ok _ -> Ok ()
  | Error _ -> (
      (* Leaf full: split and retry from the top (ancestor set may have
         changed shape). *)
      let sep, new_pid = split t ~tx ?node pid in
      insert_sep t ~tx ~path ~child_pid:pid sep new_pid;
      match probe t key with
      | pid, path, `Absent node -> insert_absent t ~tx key value pid path node
      | _, _, `Present _ -> failwith "Bptree: key appeared during a split")

let insert_with t ~tx ~key make =
  match probe t key with
  | _, _, `Present _ -> Error "duplicate key"
  | pid, path, `Absent node -> (
      match make () with
      | Ok value -> insert_absent t ~tx key value pid path node
      | Error _ as e -> e)

let insert t ~tx ~key ~value = insert_with t ~tx ~key (fun () -> Ok value)

let set t ~tx ~key ~value =
  match probe t key with
  | pid, _, `Present slot ->
      Result.map_error Engine.error_to_string
        (Engine.update t.engine ~tx ~page:pid ~slot (encode_entry key value))
  | pid, path, `Absent node -> insert_absent t ~tx key value pid path node

let delete t ~tx ~key =
  match descend t key ~leaf:(fun p -> leaf_find p key) with
  | _, _, None -> Error "not found"
  | pid, _, Some (slot, _) ->
      Result.map_error Engine.error_to_string (Engine.delete t.engine ~tx ~page:pid ~slot)

(* The leftmost leaf is the one covering min_int. *)
let leftmost_leaf t =
  let pid, _, () = descend t min_int ~leaf:ignore in
  pid

let iter t f =
  let rec walk pid =
    let node = read_node t pid in
    Array.iter (fun (k, v, _) -> f ~key:k ~value:v) node.entries;
    if node.next_leaf <> no_leaf then walk node.next_leaf
  in
  walk (leftmost_leaf t)

let compare_pair (k1, v1) (k2, v2) =
  let c = Int.compare k1 k2 in
  if c <> 0 then c else Int.compare v1 v2

let range t ~lo ~hi =
  let pid, _, () = descend t lo ~leaf:ignore in
  let acc = ref [] in
  walk_leaves t pid (fun p ->
      let hits = ref [] and beyond = ref false in
      iter_entries
        (fun k v _ -> if k > hi then beyond := true else if k >= lo then hits := (k, v) :: !hits)
        p;
      acc := List.rev_append (List.sort compare_pair !hits) !acc;
      not !beyond);
  List.rev !acc

let min_key t =
  match descend t min_int ~leaf:(fun p -> leaf_next_ge p min_int) with
  | _, _, Some (k, _) -> Some k
  | _, _, None ->
      (* The leftmost leaf may have been emptied by deletes; fall back to a
         full walk. *)
      let best = ref None in
      let () = iter t (fun ~key ~value:_ -> if !best = None then best := Some key) in
      !best

let max_key t =
  let best = ref None in
  iter t (fun ~key ~value:_ -> best := Some key);
  !best

(* Every live slot but the meta record is an entry. *)
let cardinal t =
  let n = ref 0 in
  walk_leaves t (leftmost_leaf t) (fun p ->
      n := !n + Page.live_records p - 1;
      true);
  !n

let height t =
  let rec go pid h =
    let node = read_node t pid in
    if node.is_leaf then h
    else
      let _, child, _ = node.entries.(0) in
      go child (h + 1)
  in
  go (root t) 1

let check_invariants t =
  let exception Bad of string in
  let rec check pid lo hi depth =
    let node = read_node t pid in
    let n = Array.length node.entries in
    (* Keys sorted strictly and within (lo, hi]. *)
    for i = 0 to n - 1 do
      let k, _, _ = node.entries.(i) in
      if i > 0 then begin
        let k', _, _ = node.entries.(i - 1) in
        if k' >= k then raise (Bad "keys not strictly increasing")
      end;
      if node.is_leaf && (k < lo || k > hi) then raise (Bad "leaf key outside bounds")
    done;
    if node.is_leaf then depth
    else begin
      if n = 0 then raise (Bad "empty internal node");
      let depths =
        Array.mapi
          (fun i (k, child, _) ->
            let lo' = if i = 0 then lo else k in
            let hi' = if i = n - 1 then hi else (let k', _, _ = node.entries.(i + 1) in k' - 1) in
            check child lo' hi' (depth + 1))
          node.entries
      in
      Array.iter (fun d -> if d <> depths.(0) then raise (Bad "leaves at unequal depth")) depths;
      depths.(0)
    end
  in
  try
    ignore (check (root t) min_int max_int 1);
    (* Leaf chain must produce globally sorted keys. *)
    let last = ref min_int in
    iter t (fun ~key ~value:_ ->
        if key < !last then raise (Bad "leaf chain out of order");
        last := key);
    Ok ()
  with Bad msg -> Error msg
