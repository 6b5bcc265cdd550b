(* The harness's own model of committed state for the record workloads:
   location (page, slot) -> CRC-32 of the committed payload, with just
   enough history to answer a snapshot read. Values themselves are never
   kept — a payload is regenerated from its page and a random tail, and
   only its checksum is remembered — so the harness stays small next to
   the engine it measures. *)

module Rng = Ipl_util.Rng

let absent = -1
let loc ~page ~slot = (page lsl 10) lor slot
let page_of l = l lsr 10
let slot_of l = l land 1023

type t = {
  hist : (int, (int * int) list) Hashtbl.t;
      (* loc -> [(commit_ts, crc or absent)], newest first *)
  mutable ts : int;  (* commits applied, mirroring the MVCC commit clock *)
  mutable live_bytes : int;
}

let create () = { hist = Hashtbl.create 4096; ts = 0; live_bytes = 0 }

let latest t l =
  match Hashtbl.find_opt t.hist l with Some ((_, v) :: _) -> v | _ -> absent

let at t l ~snapshot =
  match Hashtbl.find_opt t.hist l with
  | None -> absent
  | Some h -> (
      match List.find_opt (fun (ts, _) -> ts <= snapshot) h with
      | Some (_, v) -> v
      | None -> absent)

(* Keep the newest entry at or below [watermark] (the oldest snapshot a
   live transaction may read) and everything newer. *)
let prune ~watermark h =
  let rec go = function
    | [] -> []
    | ((ts, _) as e) :: rest -> if ts <= watermark then [ e ] else e :: go rest
  in
  go h

let set t ~watermark l v ~size_delta =
  let h = Option.value ~default:[] (Hashtbl.find_opt t.hist l) in
  Hashtbl.replace t.hist l (prune ~watermark ((t.ts, v) :: h));
  t.live_bytes <- t.live_bytes + size_delta

(* Apply one committed transaction's writes [(loc, crc or absent)]. *)
let commit t ~watermark ~payload writes =
  t.ts <- t.ts + 1;
  List.iter
    (fun (l, v) ->
      let before = latest t l in
      let delta =
        (if v <> absent then payload else 0) - if before <> absent then payload else 0
      in
      set t ~watermark l v ~size_delta:delta)
    writes

let load t l v ~payload = set t ~watermark:0 l v ~size_delta:payload

let fold_live f t acc =
  Hashtbl.fold (fun l h acc -> match h with (_, v) :: _ when v <> absent -> f l v acc | _ -> acc) t.hist acc

let crc b = Ipl_util.Checksum.crc32_bytes b

(* A payload: a body fixed per page (so equal-length updates change only
   the tail, as a field update would) and a random tail. *)
let payload ~size ~tail rng ~page =
  let b = Bytes.create size in
  let body = size - tail in
  let x = ref ((page * 0x9E3779B1) lor 1) in
  for i = 0 to body - 1 do
    x := (!x * 1103515245) + 12345;
    Bytes.unsafe_set b i (Char.unsafe_chr ((!x lsr 16) land 0xff))
  done;
  for i = body to size - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Rng.int rng 256))
  done;
  b

(* Zipfian ranks over [n] items, mapped through a seeded permutation so
   the hot items are scattered over pages. *)
type zipf = { cdf : float array; perm : int array }

let zipf rng ~n ~theta =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun i c -> cdf.(i) <- c /. total) cdf;
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  { cdf; perm }

let draw z rng =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  z.perm.(!lo)
