let nil = -1
let absent = -2

type t = {
  stride : int;  (* ints per id in the link array *)
  off : int;  (* of an id's prev link among its [stride] ints; next follows *)
  mutable head : int array;  (* by bucket *)
  mutable tail : int array;
  mutable size : int;
  mutable low : int;  (* every bucket below it is empty *)
}

let create ~stride ~off ~buckets =
  { stride; off; head = Array.make buckets nil; tail = Array.make buckets nil; size = 0; low = 0 }

let head l b = l.head.(b)
let tail l b = l.tail.(b)
let size l = l.size
let buckets l = Array.length l.head
let prev node l p = node.((l.stride * p) + l.off)
let next node l p = node.((l.stride * p) + l.off + 1)
let mem node l p = prev node l p <> absent

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let link node l p b =
  if b >= Array.length l.head then begin
    let n = max (b + 1) (2 * Array.length l.head) in
    l.head <- grow l.head n nil;
    l.tail <- grow l.tail n nil
  end;
  let h = l.head.(b) and i = (l.stride * p) + l.off in
  node.(i) <- nil;
  node.(i + 1) <- h;
  if h = nil then l.tail.(b) <- p else node.((l.stride * h) + l.off) <- p;
  l.head.(b) <- p;
  if b < l.low then l.low <- b

let unlink node l p b =
  let i = (l.stride * p) + l.off in
  let pr = node.(i) and nx = node.(i + 1) in
  if pr = nil then l.head.(b) <- nx else node.((l.stride * pr) + l.off + 1) <- nx;
  if nx = nil then l.tail.(b) <- pr else node.((l.stride * nx) + l.off) <- pr

let add node l p b =
  link node l p b;
  l.size <- l.size + 1

let remove node l p b =
  unlink node l p b;
  node.((l.stride * p) + l.off) <- absent;
  l.size <- l.size - 1

let move node l p ~from b =
  unlink node l p from;
  link node l p b

(* [low] falls only on a [link]; the climb over buckets emptied since
   is bounded by the highest bucket, and averages 0.8 to 1.3 buckets a
   call on the buffer pool's frequency lists (EXPERIMENTS.md E38). *)
let lowest l =
  let n = Array.length l.head in
  while l.low < n && l.head.(l.low) = nil do
    l.low <- l.low + 1
  done;
  l.low

let rec merge node l ~stamp k a b =
  if a <> nil || b <> nil then
    if b = nil || (a <> nil && stamp a < stamp b) then begin
      let rest = prev node l a in
      link node l a k;
      merge node l ~stamp k rest b
    end
    else begin
      let rest = prev node l b in
      link node l b k;
      merge node l ~stamp k a rest
    end

(* Buckets [2k] and [2k+1] merge into [k] from their tails, so each
   stays most recent first. Bucket [k] is rebuilt only after its old
   members went to [k / 2]. *)
let halve node l ~stamp =
  let n = Array.length l.head in
  for k = 0 to n - 1 do
    let a = if 2 * k < n then l.tail.(2 * k) else nil in
    let b = if (2 * k) + 1 < n then l.tail.((2 * k) + 1) else nil in
    l.head.(k) <- nil;
    l.tail.(k) <- nil;
    merge node l ~stamp k a b
  done;
  l.low <- 0
