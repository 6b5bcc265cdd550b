(* Free erase units bucketed by wear so allocation is a min-binding
   lookup, not a fold over the whole set with a wear query per member.
   The wear recorded at insertion stays exact while a block is free:
   wear only changes on erase, and a free block is not erased until it
   leaves the pool (reclaim erases {e before} inserting). Without
   wear-aware allocation every block lands in bucket 0 and allocation
   degenerates to lowest-block-number-first. *)
module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type t = {
  mutable by_wear : IntSet.t IntMap.t;  (* wear at insertion -> blocks *)
  bucket_of : (int, int) Hashtbl.t;  (* member block -> its bucket key *)
  wear : int -> int;
  channel_of : int -> int;
}

let create ~wear ~channel_of =
  { by_wear = IntMap.empty; bucket_of = Hashtbl.create 256; wear; channel_of }

let size p = Hashtbl.length p.bucket_of

let add p b =
  if not (Hashtbl.mem p.bucket_of b) then begin
    let wear = p.wear b in
    Hashtbl.replace p.bucket_of b wear;
    p.by_wear <-
      IntMap.update wear
        (fun s -> Some (IntSet.add b (Option.value ~default:IntSet.empty s)))
        p.by_wear
  end

(* The least-worn block on [channel], lowest block number among ties,
   falling back to the global minimum when the channel has no free unit
   or none is asked for. The global minimum is tried first: when it is on
   the channel (always, on a one-chip device) it is the answer, found
   without a walk. *)
let take ?channel p =
  let pick =
    match IntMap.min_binding_opt p.by_wear with
    | None -> None
    | Some (_, set) -> (
        let min = IntSet.min_elt set in
        match channel with
        | Some c when p.channel_of min <> c ->
            let on_c b = p.channel_of b = c in
            let sets = IntMap.to_seq p.by_wear in
            let local = Seq.find_map (fun (_, s) -> Seq.find on_c (IntSet.to_seq s)) sets in
            Some (Option.value ~default:min local)
        | _ -> Some min)
  in
  (match pick with
  | None -> ()
  | Some b ->
      let wear = Hashtbl.find p.bucket_of b in
      let rest = IntSet.remove b (IntMap.find wear p.by_wear) in
      p.by_wear <-
        (if IntSet.is_empty rest then IntMap.remove wear p.by_wear
         else IntMap.add wear rest p.by_wear);
      Hashtbl.remove p.bucket_of b);
  pick
