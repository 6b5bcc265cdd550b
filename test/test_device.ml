(* Tests for the multi-channel flash device: block striping, single-chip
   bit-for-bit equivalence, a one-chip device's queue and its wrapped
   chip's fault numbering and clock, deterministic virtual-time scheduling,
   op-class priorities with deadline promotion, queue-depth backpressure,
   barrier vs drain semantics, seeded timelines pinned to golden
   constants (tpcc's preemption pattern among them), the scheduler
   against a naive reference scheduler, page-boundary yields of
   background operations, the scheduler's
   allocation per submission, await and barrier (on full queues of eight
   chips and of one chip preempted by log flushes), erased-block
   buffers reused across chips, device and
   per-chip contents against a byte-array model, 1-channel vs 4-channel
   logical equivalence of a full engine workload, and a dead device
   refusing invalidation. *)

module Config = Flash_sim.Flash_config
module Chip = Flash_sim.Flash_chip
module Dev = Device.Flash_device
module Json = Ipl_util.Json
module Bench = Workload.Obs_bench

let cfg ?(num_blocks = 8) () = Config.default ~num_blocks ()

let mk ?queue_depth ?(channels = 4) ?(ways = 1) ?num_blocks () =
  Dev.create ?queue_depth ~channels ~ways (cfg ?num_blocks ())

let sector_bytes dev n = Bytes.make ((Dev.config dev).Config.sector_size * n) 'x'

(* --- striping ----------------------------------------------------- *)

let test_striping () =
  let dev = mk () in
  Alcotest.(check int) "chips" 4 (Dev.num_chips dev);
  for b = 0 to (Dev.config dev).Config.num_blocks - 1 do
    Alcotest.(check int)
      (Printf.sprintf "block %d channel" b)
      (b mod 4) (Dev.channel_of_block dev b)
  done;
  (* Device sector addresses round-trip through block arithmetic. *)
  let spb = Config.sectors_per_block (Dev.config dev) in
  Alcotest.(check int) "sector of block 3" (3 * spb) (Dev.sector_of_block dev 3);
  Alcotest.(check int) "block of sector" 3 (Dev.block_of_sector dev ((3 * spb) + 1))

(* --- single-chip equivalence -------------------------------------- *)

(* The same operation sequence of synchronous operations, against a bare
   chip and against both one-chip devices ([of_chip] and a 1x1
   [create]); state, data, timing and stats must be bit-for-bit
   identical. *)
let drive_ops read write erase num_sectors =
  let acc = Buffer.create 256 in
  let data i = Bytes.init 512 (fun j -> Char.chr ((i + j) mod 256)) in
  for i = 0 to 19 do
    write ((i * 7) mod num_sectors) (data i)
  done;
  erase 2;
  write 5 (data 99);
  for i = 0 to 19 do
    Buffer.add_bytes acc (read ((i * 3) mod num_sectors))
  done;
  Buffer.contents acc

let test_single_chip_equivalence () =
  let chip = Chip.create (cfg ()) in
  let wrapped = Dev.of_chip (Chip.create (cfg ())) in
  let created = Dev.create ~channels:1 ~ways:1 (cfg ()) in
  let on_chip =
    drive_ops
      (fun s -> Chip.read_sectors chip ~sector:s ~count:1)
      (fun s d -> Chip.write_sectors chip ~sector:s d)
      (fun b -> Chip.erase_block chip b)
      (Chip.num_sectors chip)
  in
  let on_dev dev =
    drive_ops
      (fun s -> Dev.read_sectors dev ~sector:s ~count:1)
      (fun s d -> Dev.write_sectors dev ~sector:s d)
      (fun b -> Dev.erase_block dev b)
      (Dev.num_sectors dev)
  in
  let w = on_dev wrapped and c = on_dev created in
  Alcotest.(check string) "of_chip data" on_chip w;
  Alcotest.(check string) "create 1x1 data" on_chip c;
  Alcotest.(check (float 0.0)) "of_chip clock" (Chip.elapsed chip) (Dev.elapsed wrapped);
  Alcotest.(check (float 0.0)) "create 1x1 clock" (Chip.elapsed chip) (Dev.elapsed created);
  Alcotest.(check bool) "of_chip stats" true (Chip.stats chip = Dev.stats wrapped);
  Alcotest.(check bool) "create 1x1 stats" true (Chip.stats chip = Dev.stats created);
  for s = 0 to Chip.num_sectors chip - 1 do
    assert (Chip.sector_state chip s = Dev.sector_state wrapped s);
    assert (Chip.sector_state chip s = Dev.sector_state created s)
  done

(* --- one chip ------------------------------------------------------ *)

(* A 1x1 device runs through the same per-chip scheduler as any other:
   asynchronous submissions stay in flight until awaited. Awaiting the
   last of three promotes it ahead of the second, which has not started
   either, so that one is still in flight; awaiting it too empties the
   queue. *)
let test_one_chip_queue () =
  let dev = Dev.create ~channels:1 ~ways:1 ~queue_depth:8 (cfg ()) in
  let submit s = Dev.submit_write dev ~cls:Dev.Log_flush ~sector:s (sector_bytes dev 1) in
  let t0 = submit 0 in
  let t1 = submit 1 in
  let t2 = submit 2 in
  Alcotest.(check int) "three in flight" 3 (Dev.in_flight dev);
  Dev.await dev t2;
  Alcotest.(check int) "the second, pushed back, is in flight" 1 (Dev.in_flight dev);
  Dev.await dev t1;
  Alcotest.(check int) "awaiting it empties the queue" 0 (Dev.in_flight dev);
  Dev.await dev t0;
  Alcotest.(check int) "a settled tag is a no-op" 0 (Dev.in_flight dev)

(* A fault plan on a chip fires at the chip's own operation numbers,
   whether it was installed before the chip was wrapped or after: the
   device installs no hook of its own. *)
let test_plan_on_wrapped_chip () =
  let write dev s = Dev.write_sectors dev ~sector:s (sector_bytes dev 1) in
  List.iter
    (fun before ->
      let name = if before then "installed before of_chip" else "installed after of_chip" in
      let chip = Chip.create (cfg ()) in
      for s = 0 to 2 do
        Chip.write_sectors chip ~sector:s (Bytes.make 512 'c')
      done;
      if before then Fault.Fault_plan.install chip (Fault.Fault_plan.crash_at 5);
      let dev = Dev.of_chip chip in
      if not before then Fault.Fault_plan.install chip (Fault.Fault_plan.crash_at 5);
      write dev 3;
      write dev 4;
      Alcotest.(check bool) (name ^ ": alive before op 5") false (Dev.is_dead dev);
      (match write dev 5 with
      | () -> Alcotest.failf "%s: op 5 survived" name
      | exception Chip.Power_loss i -> Alcotest.(check int) (name ^ ": dies at op") 5 i);
      Alcotest.(check bool) (name ^ ": dead") true (Dev.is_dead dev);
      Alcotest.(check int) (name ^ ": chip numbered it") 6 (Chip.op_count chip))
    [ true; false ]

(* A device wrapped around a used chip starts its clock at the chip's. *)
let test_wrapped_clock () =
  let chip = Chip.create (cfg ()) in
  Chip.write_sectors chip ~sector:0 (Bytes.make 512 'c');
  Chip.erase_block chip 1;
  let dev = Dev.of_chip chip in
  Alcotest.(check (float 0.0)) "clock before the first op" (Chip.elapsed chip) (Dev.elapsed dev);
  Alcotest.(check bool) "positive" true (Dev.elapsed dev > 0.0)

(* --- determinism --------------------------------------------------- *)

let test_determinism () =
  let run () =
    let dev = mk () in
    let tags = ref [] in
    for i = 0 to 30 do
      let sector = Dev.sector_of_block dev (i mod 8) in
      if Dev.sector_state dev sector = Chip.Free then
        tags := Dev.submit_write dev ~cls:Dev.Log_flush ~sector (sector_bytes dev 1) :: !tags;
      ignore (Dev.submit_read dev ~cls:Dev.Foreground ~sector ~count:1)
    done;
    List.iter (fun tag -> Dev.await dev tag) !tags;
    Dev.drain dev;
    (Dev.elapsed dev, Dev.stats dev, Json.to_string (Dev.to_json dev))
  in
  let e1, s1, j1 = run () in
  let e2, s2, j2 = run () in
  Alcotest.(check (float 0.0)) "elapsed" e1 e2;
  Alcotest.(check bool) "stats" true (s1 = s2);
  Alcotest.(check string) "report" j1 j2

(* --- scheduler: priority + deadline promotion ---------------------- *)

(* Fill one chip with a long erase, queue a second erase behind it, then
   submit a foreground read on the same chip. The read both outranks the
   queued erase (class priority) and is promoted when awaited, so the
   host clock passes the read's completion while the second erase is
   still outstanding. *)
let test_priority_overtakes_queued () =
  let dev = mk () in
  Dev.write_sectors dev ~sector:0 (sector_bytes dev 1);
  let t1 = Dev.submit_erase dev ~cls:Dev.Merge_io 0 in
  let t2 = Dev.submit_erase dev ~cls:Dev.Merge_io 0 in
  ignore t1;
  let _data, rt = Dev.submit_read dev ~sector:0 ~count:1 ~cls:Dev.Foreground in
  Dev.await dev rt;
  Alcotest.(check int) "second erase still in flight" 1 (Dev.in_flight dev);
  Dev.await dev t2;
  Alcotest.(check int) "drained" 0 (Dev.in_flight dev)

(* --- barrier vs drain ---------------------------------------------- *)

let test_barrier_vs_drain () =
  let dev = mk () in
  (* A long background erase, a stack of foreground reads, and one
     durable log-flush program, all on different chips. The durability
     barrier waits only for the log flush — a short program — so the
     erase and the deeper read completions are still outstanding after
     it; drain waits for everything. *)
  Dev.write_sectors dev ~sector:0 (sector_bytes dev 1);
  ignore (Dev.submit_erase dev ~cls:Dev.Merge_io 0);
  let rsector = Dev.sector_of_block dev 2 in
  for _ = 1 to 10 do
    ignore (Dev.submit_read dev ~cls:Dev.Foreground ~sector:rsector ~count:1)
  done;
  ignore
    (Dev.submit_write dev ~cls:Dev.Log_flush
       ~sector:(Dev.sector_of_block dev 1)
       (sector_bytes dev 1));
  Dev.barrier dev;
  Alcotest.(check bool)
    "erase and reads survive the durability barrier" true (Dev.in_flight dev >= 2);
  Dev.drain dev;
  Alcotest.(check int) "drain settles everything" 0 (Dev.in_flight dev)

(* --- queue-depth backpressure -------------------------------------- *)

let test_queue_depth_backpressure () =
  let dev = mk ~queue_depth:2 () in
  let sector = 0 in
  for _ = 1 to 5 do
    ignore (Dev.submit_read dev ~cls:Dev.Foreground ~sector ~count:1)
  done;
  (* A full queue stalls the host to the earliest completion before
     accepting the next submission, so at most [queue_depth] operations
     are ever outstanding per chip. *)
  Alcotest.(check bool) "bounded queue" true (Dev.in_flight dev <= 2);
  Dev.drain dev

(* --- golden scheduler timelines ------------------------------------ *)

(* Seeded random operation sequences: reads, programs and erases of every
   op class, sync, awaited and fire-and-forget, with awaits, barriers,
   drains, host think time and queue-filling bursts interleaved, one
   injected program failure and one torn program (which kills the device
   until the hook is cleared). The device clock and in-flight count after
   every step, and the final device report, are pinned to constants: the
   scheduler's data structures may change, its timelines may not. *)
let golden_run ~channels ~ways ~queue_depth ~seed =
  let rng = Random.State.make [| seed |] in
  let n = channels * ways in
  let dev = Dev.create ~queue_depth ~channels ~ways (cfg ~num_blocks:(2 * n) ()) in
  let nblocks = (Dev.config dev).Config.num_blocks in
  let spb = Config.sectors_per_block (Dev.config dev) in
  let classes = [| Dev.Foreground; Dev.Log_flush; Dev.Merge_io; Dev.Scrub |] in
  let trace = Buffer.create 8192 in
  let tags = ref [] in
  let keep tag = tags := List.filteri (fun i _ -> i < 16) (tag :: !tags) in
  let fail_at = 60 + Random.State.int rng 60 and tear_at = 250 + Random.State.int rng 60 in
  let failed = ref false and torn = ref false in
  let hook i = function
    | Chip.Op_program _ when i >= fail_at && not !failed ->
        failed := true;
        Chip.Program_fail
    | Chip.Op_program _ when i >= tear_at && not !torn ->
        torn := true;
        Chip.Tear 1
    | _ -> Chip.Proceed
  in
  Dev.set_fault_hook dev (Some hook);
  let pick k = Random.State.int rng k in
  for _ = 1 to 500 do
    let cls = classes.(pick 4) in
    let b = pick nblocks in
    let base = Dev.sector_of_block dev b in
    let free = Dev.free_sectors_in_block dev b in
    (try
       match pick 100 with
       | r when r < 30 ->
           let count = 1 + pick 4 in
           let sector = base + pick (spb - count + 1) in
           (match pick 3 with
           | 0 -> ignore (Dev.read_sectors ~cls dev ~sector ~count : bytes)
           | 1 -> keep (snd (Dev.submit_read dev ~cls ~sector ~count))
           | _ -> Dev.publish_read_into dev ~cls ~sector ~count (sector_bytes dev count))
       | r when r < 62 && free > 0 ->
           (* Blocks are always programmed from their first free sector
              on, so the free sectors are the block's tail. *)
           let count = 1 + pick (min 4 free) in
           let sector = base + spb - free in
           let data = sector_bytes dev count in
           (match pick 3 with
           | 0 -> Dev.write_sectors ~cls dev ~sector data
           | 1 -> keep (Dev.submit_write dev ~cls ~sector data)
           | _ -> Dev.publish_write dev ~cls ~sector data)
       | r when r < 70 -> (
           match pick 3 with
           | 0 -> Dev.erase_block ~cls dev b
           | 1 -> keep (Dev.submit_erase dev ~cls b)
           | _ -> Dev.publish_erase dev ~cls b)
       | r when r < 84 -> (
           match !tags with [] -> () | l -> Dev.await dev (List.nth l (pick (List.length l))))
       | r when r < 91 -> Dev.barrier dev
       | r when r < 92 -> Dev.drain dev
       | r when r < 95 ->
           (* A burst of reads of mixed classes on one chip: fills deep
              queues, so backpressure and priority push-backs run. *)
           for _ = 1 to 20 + pick 30 do
             let cls = classes.(pick 4) in
             Dev.publish_read_into dev ~cls ~sector:(base + pick spb) ~count:1 (sector_bytes dev 1)
           done
       | _ -> Dev.advance_time dev (float_of_int (pick 400) *. 1e-6)
     with
    | Chip.Program_error _ -> Buffer.add_string trace "program_error;"
    | Chip.Power_loss _ ->
        Buffer.add_string trace "power_loss;";
        Dev.set_fault_hook dev None);
    Printf.bprintf trace "%h/%d;" (Dev.elapsed dev) (Dev.in_flight dev)
  done;
  Alcotest.(check bool) "program failure injected" true !failed;
  Alcotest.(check bool) "torn program injected" true !torn;
  Dev.drain dev;
  Printf.bprintf trace "%h/%d" (Dev.elapsed dev) (Dev.in_flight dev);
  ( Digest.to_hex (Digest.string (Buffer.contents trace)),
    Digest.to_hex (Digest.string (Json.to_string (Dev.to_json dev))) )

let golden_cases =
  [
    (* channels, ways, queue_depth, seed, clock trace MD5, report MD5 *)
    (2, 1, 1, 1, "6367677551a968b796260bc01ec09bdd", "83c9c4e5389bc35039b0921d913d85e4");
    (2, 1, 32, 2, "7f5bf999881cebd24e820d2a40191d2c", "98d61554abe2eb733556f775dfe49c6f");
    (2, 2, 2, 3, "ae9ac25032844d40c8af6a6830a282df", "9b616e9508697d7719e5fd92d40896b9");
    (3, 1, 32, 4, "a9833853eda3e44a93716177554cd15c", "ca65d8bd9bac09e4addd444e92173f30");
    (4, 1, 2, 5, "b64440d8beae397ba2c1c920d85aa785", "bf12974612f6915761ad5966a7f896ce");
    (2, 3, 1, 6, "c55fdaf15f98c4e31f2f42e69ecd1ac4", "e15c057f211293f3b638ba461e20822a");
    (4, 2, 32, 7, "4e76007159e2c415e22f9db9eb3946f0", "2e4e9986eaefbcb2f8523dbad29fc891");
    (2, 4, 2, 8, "1c845b1a3880436aeda4aff10202a9fa", "71311cf08f99e5d188f64cfa4942429a");
    (4, 2, 64, 9, "89d7cab54503e292a4ae1f7f4f529cc7", "e1b3495dcb7610256184e614deeda008");
    (2, 2, 64, 10, "54e197fc0d61616adc311fb89c7dc243", "a76459d16bd7e20f86e9ce8fe7b5c75a");
    (* One chip: a burst of mixed-class ops queued on it is tpcc's
       pattern. *)
    (1, 1, 32, 12, "ea4f6740c501609a368c9f34bdd4b6a6", "c8e9a6c0489efc40a92f0a7243adbec7");
    (1, 1, 64, 13, "749f6e99967e7db88857a89c8d45d147", "da0b9e7d39821c276cdf1a6b26c5fb81");
  ]

(* tpcc's pattern, seeded: each round refills a Merge_io backlog to full
   queues, lets Log_flush programs preempt it, awaits a Log_flush program
   queued behind a Foreground read on the same chip (so the promotion is
   out of order), and runs a barrier or awaits. Every fourth round first
   drains the device, submits one program and queues more behind it on
   the same chip, and advances the host clock by exactly the first
   one's service time: the second then starts at the host clock, which
   a settle must count as started. Pinned like [golden_run]. *)
let tpcc_shaped_run ~channels ~ways ~queue_depth ~seed =
  let rng = Random.State.make [| seed |] in
  let n = channels * ways in
  let dev = Dev.create ~queue_depth ~channels ~ways (cfg ~num_blocks:(4 * n) ()) in
  let spb = Config.sectors_per_block (Dev.config dev) in
  let pick k = Random.State.int rng k in
  let trace = Buffer.create 8192 in
  let step () = Printf.bprintf trace "%h/%d;" (Dev.elapsed dev) (Dev.in_flight dev) in
  (* Blocks [0, 2n) take merge I/O, [2n, 4n) log flushes; device block
     [b] lives on chip [b mod n]. A full block is erased as merge I/O. *)
  let used = Array.make (4 * n) 0 in
  let room b count =
    if used.(b) + count > spb then begin
      Dev.publish_erase dev ~cls:Dev.Merge_io b;
      used.(b) <- 0
    end;
    used.(b) <- used.(b) + count;
    Dev.sector_of_block dev b + used.(b) - count
  in
  let merge_write b count =
    Dev.publish_write dev ~cls:Dev.Merge_io ~sector:(room b count) (sector_bytes dev count)
  in
  let log_sector chip = room ((2 * n) + chip + (n * pick 2)) 1 in
  let full = n * queue_depth in
  for round = 1 to 48 do
    if round mod 4 = 1 then begin
      Dev.drain dev;
      let e0 = Dev.elapsed dev and b = pick (2 * n) in
      merge_write b 1;
      let e1 = Dev.elapsed dev in
      for _ = 1 to 3 do
        merge_write b 1
      done;
      Dev.advance_time dev (e1 -. e0);
      step ()
    end;
    let k = ref 0 in
    while Dev.in_flight dev < full - n && !k < 2 * full do
      incr k;
      let b = pick (2 * n) in
      if pick 8 = 0 then
        Dev.publish_read_into dev ~cls:Dev.Merge_io
          ~sector:(Dev.sector_of_block dev b + pick spb)
          ~count:1 (sector_bytes dev 1)
      else merge_write b (1 + pick 4)
    done;
    step ();
    let tags = ref [] in
    for _ = 0 to pick 4 do
      let sector = log_sector (pick n) in
      tags := Dev.submit_write dev ~cls:Dev.Log_flush ~sector (sector_bytes dev 1) :: !tags;
      step ()
    done;
    if pick 2 = 0 then begin
      Dev.write_sectors ~cls:Dev.Log_flush dev ~sector:(log_sector (pick n)) (sector_bytes dev 1);
      step ()
    end;
    let chip = pick n in
    let sector = Dev.sector_of_block dev chip in
    let _, read = Dev.submit_read dev ~cls:Dev.Foreground ~sector ~count:1 in
    let sector = log_sector chip in
    let flush = Dev.submit_write dev ~cls:Dev.Log_flush ~sector (sector_bytes dev 1) in
    Dev.await dev flush;
    step ();
    if pick 2 = 0 then Dev.await dev read;
    (match pick 3 with 0 -> Dev.barrier dev | 1 -> List.iter (Dev.await dev) !tags | _ -> ());
    step ();
    if pick 3 = 0 then Dev.advance_time dev (float_of_int (pick 400) *. 1e-6)
  done;
  Dev.drain dev;
  step ();
  ( Digest.to_hex (Digest.string (Buffer.contents trace)),
    Digest.to_hex (Digest.string (Json.to_string (Dev.to_json dev))) )

let tpcc_shaped_cases =
  [
    (* channels, ways, queue_depth, seed, clock trace MD5, report MD5 *)
    (1, 1, 64, 14, "acf408e4f3a632841e921c822c240a3a", "4becddec720e7f85b31449c6e2dc04ef");
    (4, 2, 32, 15, "3516d1d92e86ef9df7b04ebf3df97d79", "66f5fd2579905ad6d8c3ba7bb6f2b5c5");
  ]

let test_golden_timelines () =
  let check run cases =
    List.iter
      (fun (channels, ways, queue_depth, seed, clock_md5, report_md5) ->
        let name = Printf.sprintf "%dx%d qd %d seed %d" channels ways queue_depth seed in
        let clock, report = run ~channels ~ways ~queue_depth ~seed in
        Alcotest.(check string) (name ^ " clock") clock_md5 clock;
        Alcotest.(check string) (name ^ " report") report_md5 report)
      cases
  in
  check golden_run golden_cases;
  check tpcc_shaped_run tpcc_shaped_cases

(* --- the scheduler against a reference ------------------------------ *)

(* Service times that are powers of two, and host think times in
   multiples of 2^-14 s: every time either scheduler computes is exact,
   so a reference that adds in another order must agree bit for bit. *)
let dyadic_cfg ~num_blocks =
  {
    (cfg ~num_blocks ()) with
    Config.t_read_page = Float.ldexp 1.0 (-13);
    t_write_page = Float.ldexp 1.0 (-12);
    t_erase_block = Float.ldexp 1.0 (-9);
  }

(* A naive per-chip scheduler, written from the documented rules rather
   than from the device's queues: an event simulation that keeps every
   op in one list and decides at each completion what a free chip runs
   next. Rules:
   - a chip serves one op at a time; an op whose start is no later than
     the host clock has started;
   - a free chip runs an awaited op first, else the highest class, else
     (within a class) an op that yielded, else the earliest submission;
   - a Foreground or Log_flush arrival makes a running background read
     or program finish the flash page it is on and go back to its
     queue; the page in progress always finishes, so an op on its last
     page, a one-page op and an erase never yield;
   - a submission against [queue_depth] unfinished ops on its chip
     waits for the next completion;
   - a barrier awaits, in submission order, the unfinished programs and
     erases of the Foreground and Log_flush classes; a drain waits for
     every chip to finish. *)
module Ref_sched = struct
  type state = Queued | Running | Done

  type op = {
    tag : Dev.tag option;  (* an awaitable submission's *)
    seq : int;
    cls : int;
    durable : bool;
    page : float;  (* the page time of an op that may yield, else 0 *)
    mutable rem : float;  (* service time left *)
    mutable start : float;
    mutable fin : float;
    mutable state : state;
    mutable promoted : bool;
    mutable yielded : bool;
  }

  type chip = { mutable ops : op list; mutable free_at : float; mutable running : op option }

  type t = {
    chips : chip array;
    queue_depth : int;
    mutable now : float;
    waits : float array;  (* await, barrier, sync, backpressure *)
    mutable seq : int;
  }

  let create ~chips ~queue_depth =
    {
      chips = Array.init chips (fun _ -> { ops = []; free_at = 0.0; running = None });
      queue_depth;
      now = 0.0;
      waits = Array.make 4 0.0;
      seq = 0;
    }

  let w_await = 0
  let w_barrier = 1
  let w_sync = 2
  let w_backpressure = 3

  let wait r cause target =
    if target > r.now then begin
      r.waits.(cause) <- r.waits.(cause) +. (target -. r.now);
      r.now <- target
    end

  let ahead o b =
    if o.promoted <> b.promoted then o.promoted
    else if o.cls <> b.cls then o.cls < b.cls
    else if o.yielded <> b.yielded then o.yielded
    else o.seq < b.seq

  let queued c = List.filter (fun o -> o.state = Queued) c.ops
  let next c = List.fold_left (fun m o -> match m with Some b when ahead b o -> m | _ -> Some o) None (queued c)

  (* When the chip's next event happens: the running op's end, or the
     next start; infinity if idle. *)
  let next_event c =
    match c.running with
    | Some o -> o.fin
    | None -> if queued c = [] then infinity else c.free_at

  (* Run the chip's next event: finish the running op, or start the
     next. The op it finished, if any. *)
  let step c =
    match c.running with
    | Some o ->
        o.state <- Done;
        c.free_at <- o.fin;
        c.running <- None;
        Some o
    | None -> (
        match next c with
        | None -> invalid_arg "Ref_sched.step: idle chip"
        | Some o ->
            o.state <- Running;
            o.yielded <- false;
            o.start <- c.free_at;
            o.fin <- o.start +. o.rem;
            c.running <- Some o;
            None)

  let advance c now =
    while next_event c <= now do
      ignore (step c : op option)
    done

  let unfinished c = List.length (List.filter (fun o -> o.state <> Done) c.ops)

  let await r ci ~cause o =
    let c = r.chips.(ci) in
    advance c r.now;
    if o.state <> Done then begin
      if o.state = Queued then o.promoted <- true;
      while o.state <> Done do
        ignore (step c : op option)
      done;
      wait r cause o.fin
    end

  let submit r ci ?tag ~cls ~durable ~page dur =
    let c = r.chips.(ci) in
    advance c r.now;
    if unfinished c >= r.queue_depth then begin
      let rec first_done () = match step c with Some o -> o.fin | None -> first_done () in
      wait r w_backpressure (first_done ());
      advance c r.now
    end;
    (match c.running with
    | Some x when cls <= 1 && x.page > 0.0 ->
        let boundary = x.start +. ((Float.floor ((r.now -. x.start) /. x.page) +. 1.0) *. x.page) in
        if x.fin -. boundary > 0.5 *. x.page then begin
          x.rem <- x.fin -. boundary;
          x.state <- Queued;
          x.yielded <- true;
          c.running <- None;
          c.free_at <- boundary
        end
    | _ -> ());
    if next_event c = infinity then c.free_at <- Float.max c.free_at r.now;
    let o =
      {
        tag;
        seq = r.seq;
        cls;
        durable;
        page;
        rem = dur;
        start = nan;
        fin = nan;
        state = Queued;
        promoted = false;
        yielded = false;
      }
    in
    r.seq <- r.seq + 1;
    c.ops <- c.ops @ [ o ];
    advance c r.now;
    o

  let barrier r =
    let durable =
      List.concat_map
        (fun (ci, c) ->
          List.filter_map
            (fun o -> if o.durable && o.state <> Done then Some (ci, o) else None)
            c.ops)
        (List.mapi (fun ci c -> (ci, c)) (Array.to_list r.chips))
    in
    List.iter
      (fun (ci, o) -> await r ci ~cause:w_barrier o)
      (List.sort (fun (_, (a : op)) (_, (b : op)) -> compare a.seq b.seq) durable)

  let drain r =
    Array.iter
      (fun c ->
        while next_event c < infinity do
          ignore (step c : op option)
        done;
        wait r w_barrier c.free_at)
      r.chips

  (* Each unfinished op's completion if nothing else arrives: the
     running op's end, then the queued ones back to back in the order a
     free chip would pick them. *)
  let plan c =
    let t = ref (match c.running with Some o -> o.fin | None -> c.free_at) in
    let rec order acc = function
      | [] -> List.rev acc
      | l ->
          let o = List.fold_left (fun m o -> if ahead o m then o else m) (List.hd l) l in
          order (o :: acc) (List.filter (fun x -> x != o) l)
    in
    (match c.running with Some o -> [ (o, o.fin) ] | None -> [])
    @ List.map
        (fun o ->
          t := !t +. o.rem;
          (o, !t))
        (order [] (queued c))

  let makespan r =
    Array.fold_left
      (fun m c -> List.fold_left (fun m (_, f) -> Float.max m f) m (plan c))
      r.now r.chips
end

let host_waits dev =
  match Json.member "host_wait_s" (Dev.to_json dev) with
  | Some w ->
      List.map
        (fun k -> match Json.member k w with Some (Json.Float f) -> f | _ -> nan)
        [ "await"; "barrier"; "sync"; "backpressure" ]
  | None -> Alcotest.fail "no host_wait_s"

(* After every call: the device's makespan and host waits by cause equal
   the reference's, and so does every awaitable op's completion, planned
   while it is outstanding and final once it is done. *)
let check_against dev r ~what =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  Array.iter (fun c -> Ref_sched.advance c r.Ref_sched.now) r.Ref_sched.chips;
  if Dev.elapsed dev <> Ref_sched.makespan r then
    fail "makespan %h, reference %h" (Dev.elapsed dev) (Ref_sched.makespan r);
  List.iteri
    (fun i (d, e) -> if d <> e then fail "host wait %d: %h, reference %h" i d e)
    (List.combine (host_waits dev) (Array.to_list r.Ref_sched.waits));
  Array.iter
    (fun c ->
      let plan = Ref_sched.plan c in
      List.iter
        (fun (o : Ref_sched.op) ->
          match o.tag with
          | None -> ()
          | Some tag -> (
              let want = List.assq_opt o plan in
              match (Dev.completion dev tag, want) with
              | Some f, Some p when f = p -> ()
              | Some f, None when o.state = Done && f = o.fin -> ()
              | None, None when o.state = Done && o.fin <= r.now -> ()
              | got, _ ->
                  fail "op %d (class %d): completion %s, reference %s" o.seq o.cls
                    (match got with Some f -> Printf.sprintf "%h" f | None -> "settled")
                    (match want with
                    | Some p -> Printf.sprintf "%h planned" p
                    | None -> Printf.sprintf "%h done" o.fin)))
        c.Ref_sched.ops)
    r.Ref_sched.chips

(* Seeded random mixes of classes, op kinds, page counts (aligned data
   pages of one to four flash pages, and unaligned runs), sync, awaited
   and fire-and-forget submissions, awaits, barriers, drains and host
   think time, checked against the reference after every call. *)
let oracle_run ~channels ~ways ~queue_depth ~seed =
  let rng = Random.State.make [| seed |] in
  let pick k = Random.State.int rng k in
  let n = channels * ways in
  let config = dyadic_cfg ~num_blocks:(4 * n) in
  let dev = Dev.create ~queue_depth ~channels ~ways config in
  let r = Ref_sched.create ~chips:n ~queue_depth in
  let spb = Config.sectors_per_block config and spp = Config.sectors_per_page config in
  let classes = [| Dev.Foreground; Dev.Log_flush; Dev.Merge_io; Dev.Scrub |] in
  let used = Array.make (4 * n) 0 in
  let kept = ref [] in
  let what = Printf.sprintf "%dx%d qd %d seed %d" channels ways queue_depth seed in
  for step = 1 to 500 do
    let k = pick 4 in
    let cls = classes.(k) in
    let b = pick (4 * n) in
    let ci = b mod n and base = Dev.sector_of_block dev b in
    let count () = if pick 2 = 0 then spp * (1 + pick 4) else 1 + pick (4 * spp) in
    let pages s count = ((s + count - 1) / spp) - (s / spp) + 1 in
    let submit ~mode ~durable ~page dur sync async publish =
      match mode with
      | 0 ->
          let o = Ref_sched.submit r ci ~cls:k ~durable ~page dur in
          Ref_sched.await r ci ~cause:Ref_sched.w_sync o;
          sync ()
      | 1 ->
          let tag = async () in
          kept := (ci, Ref_sched.submit r ci ~tag ~cls:k ~durable ~page dur) :: !kept
      | _ ->
          ignore (Ref_sched.submit r ci ~cls:k ~durable ~page dur : Ref_sched.op);
          publish ()
    in
    (match pick 100 with
    | x when x < 40 ->
        let count = count () in
        let sector = base + pick (spb - count + 1) in
        let page = if k >= 2 then config.Config.t_read_page else 0.0 in
        submit ~mode:(pick 3) ~durable:false ~page
          (float_of_int (pages sector count) *. config.Config.t_read_page)
          (fun () -> ignore (Dev.read_sectors ~cls dev ~sector ~count : bytes))
          (fun () -> snd (Dev.submit_read dev ~cls ~sector ~count))
          (fun () -> Dev.publish_read_into dev ~cls ~sector ~count (sector_bytes dev count))
    | x when x < 72 && used.(b) < spb ->
        let count = min (count ()) (spb - used.(b)) in
        let sector = base + used.(b) in
        used.(b) <- used.(b) + count;
        let data = sector_bytes dev count in
        let page = if k >= 2 then config.Config.t_write_page else 0.0 in
        submit ~mode:(pick 3) ~durable:(k <= 1) ~page
          (float_of_int (pages sector count) *. config.Config.t_write_page)
          (fun () -> Dev.write_sectors ~cls dev ~sector data)
          (fun () -> Dev.submit_write dev ~cls ~sector data)
          (fun () -> Dev.publish_write dev ~cls ~sector data)
    | x when x < 78 ->
        used.(b) <- 0;
        submit ~mode:(pick 3) ~durable:(k <= 1) ~page:0.0 config.Config.t_erase_block
          (fun () -> Dev.erase_block ~cls dev b)
          (fun () -> Dev.submit_erase dev ~cls b)
          (fun () -> Dev.publish_erase dev ~cls b)
    | x when x < 88 -> (
        match !kept with
        | [] -> ()
        | l ->
            let ci, o = List.nth l (pick (List.length l)) in
            Ref_sched.await r ci ~cause:Ref_sched.w_await o;
            Option.iter (Dev.await dev) o.Ref_sched.tag)
    | x when x < 93 ->
        Ref_sched.barrier r;
        Dev.barrier dev
    | x when x < 94 ->
        Ref_sched.drain r;
        Dev.drain dev
    | _ ->
        let dt = Float.ldexp (float_of_int (pick 24)) (-14) in
        r.Ref_sched.now <- r.Ref_sched.now +. dt;
        Dev.advance_time dev dt);
    check_against dev r ~what:(Printf.sprintf "%s step %d" what step)
  done;
  Ref_sched.drain r;
  Dev.drain dev;
  check_against dev r ~what:(what ^ " drained");
  Array.fold_left (fun acc (c : Dev.channel_report) -> acc + c.Dev.yields) 0
    (Array.of_list (Dev.channel_report dev))

let test_reference_scheduler () =
  let yields =
    List.fold_left
      (fun acc (channels, ways, queue_depth, seed) ->
        acc + oracle_run ~channels ~ways ~queue_depth ~seed)
      0
      [
        (1, 1, 1, 21); (1, 1, 4, 22); (1, 1, 32, 23); (1, 1, 64, 24); (2, 1, 2, 25);
        (2, 1, 32, 26); (2, 2, 8, 27); (4, 1, 32, 28); (4, 2, 3, 29); (1, 1, 16, 30);
      ]
  in
  (* The mixes exercise the yield rule, not only the queues. *)
  Alcotest.(check bool) (Printf.sprintf "%d yields" yields) true (yields > 50)

(* --- page-boundary yields ------------------------------------------- *)

(* On a 1x1 device with the paper's timings, a data page is four flash
   pages: 320 us to read, 800 us to program. *)
let us x = x *. 1e-6
let close what want got = Alcotest.(check (float 1e-12)) what want got

let done_at dev tag =
  match Dev.completion dev tag with Some f -> f | None -> Alcotest.fail "settled too early"

let yields dev = List.fold_left (fun n (r : Dev.channel_report) -> n + r.Dev.yields) 0 (Dev.channel_report dev)

(* A foreground read arriving in the second page of a 4-page merge
   program starts at that page's end, and the program completes later by
   exactly the read's service time; awaiting the program after the read
   returns at its resumed end. A Log_flush arrival makes a Scrub program yield the
   same way, and a Merge_io program queued behind the scrub, which
   outranks it, moves up to start right after the log flush. The
   per-channel yield count, in the report and its JSON, counts both. *)
let test_page_yield () =
  let dev = Dev.create ~channels:1 ~ways:1 ~queue_depth:8 (cfg ()) in
  Dev.write_sectors dev ~sector:0 (sector_bytes dev 16);
  let t0 = Dev.elapsed dev in
  let block b = Dev.sector_of_block dev b in
  let merge = Dev.submit_write dev ~cls:Dev.Merge_io ~sector:(block 1) (sector_bytes dev 16) in
  Dev.advance_time dev (us 300.0);
  let _, read = Dev.submit_read dev ~cls:Dev.Foreground ~sector:0 ~count:16 in
  close "read: page boundary + 320 us" (t0 +. us 720.0) (done_at dev read);
  close "program: later by the read's 320 us" (t0 +. us 1120.0) (done_at dev merge);
  Dev.await dev read;
  Alcotest.(check int) "program still in flight" 1 (Dev.in_flight dev);
  Dev.await dev merge;
  Alcotest.(check int) "settled" 0 (Dev.in_flight dev);
  close "awaited at its resumed end" (t0 +. us 1120.0) (Dev.elapsed dev);
  Alcotest.(check int) "one yield" 1 (yields dev);
  let t1 = Dev.elapsed dev in
  let scrub = Dev.submit_write dev ~cls:Dev.Scrub ~sector:(block 2) (sector_bytes dev 16) in
  let queued = Dev.submit_write dev ~cls:Dev.Merge_io ~sector:(block 3) (sector_bytes dev 4) in
  close "merge queued behind the scrub" (t1 +. us 1000.0) (done_at dev queued);
  Dev.advance_time dev (us 300.0);
  let flush = Dev.submit_write dev ~cls:Dev.Log_flush ~sector:(block 4) (sector_bytes dev 1) in
  close "log flush at the page boundary" (t1 +. us 600.0) (done_at dev flush);
  close "merge moves up behind it" (t1 +. us 800.0) (done_at dev queued);
  close "scrub resumes last" (t1 +. us 1200.0) (done_at dev scrub);
  Dev.drain dev;
  Alcotest.(check int) "two yields" 2 (yields dev);
  match Json.member "per_channel" (Dev.to_json dev) with
  | Some (Json.List [ chan ]) ->
      Alcotest.(check bool) "per_channel yields" true (Json.member "yields" chan = Some (Json.Int 2))
  | _ -> Alcotest.fail "per_channel"

(* Awaiting the yielded op before the arrival has started promotes it:
   it resumes at the page boundary and ends when it would have, and the
   read waits behind it. *)
let test_await_yielded () =
  let dev = Dev.create ~channels:1 ~ways:1 ~queue_depth:8 (cfg ()) in
  let t0 = Dev.elapsed dev in
  let merge =
    Dev.submit_write dev ~cls:Dev.Merge_io ~sector:(Dev.sector_of_block dev 1) (sector_bytes dev 16)
  in
  Dev.advance_time dev (us 300.0);
  let _, read = Dev.submit_read dev ~cls:Dev.Foreground ~sector:0 ~count:16 in
  Dev.await dev merge;
  close "program: its own end" (t0 +. us 800.0) (done_at dev read -. us 320.0);
  Alcotest.(check int) "read still in flight" 1 (Dev.in_flight dev);
  Dev.await dev read;
  close "read behind it" (t0 +. us 1120.0) (Dev.elapsed dev)

(* What never yields: an erase (no erase suspend), a one-page program,
   a program on its last page, and any op to an arrival of a class that
   does not outrank the background ones. *)
let test_no_yield () =
  let dev = Dev.create ~channels:1 ~ways:1 ~queue_depth:8 (cfg ()) in
  let block b = Dev.sector_of_block dev b in
  let case what ~arrive ~cls ~after background =
    Dev.drain dev;
    let t0 = Dev.elapsed dev in
    let tag = background () in
    Dev.advance_time dev (us arrive);
    let _, read = Dev.submit_read dev ~cls ~sector:0 ~count:4 in
    close (what ^ ": read waits") (t0 +. us after +. us 80.0) (done_at dev read);
    Dev.await dev tag
  in
  case "erase" ~arrive:300.0 ~cls:Dev.Foreground ~after:1500.0 (fun () ->
      Dev.submit_erase dev ~cls:Dev.Merge_io 5);
  case "one-page program" ~arrive:50.0 ~cls:Dev.Log_flush ~after:200.0 (fun () ->
      Dev.submit_write dev ~cls:Dev.Merge_io ~sector:(block 1) (sector_bytes dev 4));
  case "last page" ~arrive:700.0 ~cls:Dev.Foreground ~after:800.0 (fun () ->
      Dev.submit_write dev ~cls:Dev.Scrub ~sector:(block 2) (sector_bytes dev 16));
  case "background arrival" ~arrive:300.0 ~cls:Dev.Merge_io ~after:800.0 (fun () ->
      Dev.submit_write dev ~cls:Dev.Scrub ~sector:(block 3) (sector_bytes dev 16));
  Alcotest.(check int) "no yield" 0 (yields dev)

(* Yields move completions only: with a foreground read arriving during
   each of 40 merge programs, every op still settles exactly once (one
   latency sample each) and the chip's busy time is the sum of the
   service times. *)
let test_yield_accounting () =
  let dev = Dev.create ~channels:1 ~ways:1 ~queue_depth:8 (cfg ~num_blocks:64 ()) in
  for i = 1 to 40 do
    Dev.publish_write dev ~cls:Dev.Merge_io ~sector:(Dev.sector_of_block dev i) (sector_bytes dev 16);
    Dev.advance_time dev (us 250.0);
    Dev.publish_read_into dev ~cls:Dev.Foreground ~sector:0 ~count:16 (sector_bytes dev 16);
    Dev.advance_time dev (us 100.0)
  done;
  Dev.drain dev;
  let count cls = Obs.Metrics.Latency.count (Dev.class_latency dev cls) in
  Alcotest.(check int) "merge samples" 40 (count Dev.Merge_io);
  Alcotest.(check int) "foreground samples" 40 (count Dev.Foreground);
  Alcotest.(check bool) "reads yielded to" true (yields dev > 0);
  match Dev.channel_report dev with
  | [ r ] -> close "busy_s" (40.0 *. us (800.0 +. 320.0)) r.Dev.busy_s
  | _ -> Alcotest.fail "one channel"

(* The yield allocates nothing: a read arriving during a merge program
   costs the same minor words whether it is a Foreground read, which the
   program yields to, or a Scrub read, which queues behind it. *)
let test_yield_allocation () =
  let words_per cls =
    let dev = Dev.create ~channels:1 ~ways:1 ~queue_depth:8 (cfg ~num_blocks:64 ()) in
    let spb = Config.sectors_per_block (Dev.config dev) in
    let data = sector_bytes dev 16 and buf = sector_bytes dev 16 in
    let runs = 512 and next = ref 0 in
    let round () =
      let b = 1 + (!next / (spb / 16) mod 63) in
      if !next mod (spb / 16) = 0 then Dev.publish_erase dev ~cls:Dev.Merge_io b;
      Dev.publish_write dev ~cls:Dev.Merge_io
        ~sector:(Dev.sector_of_block dev b + (16 * (!next mod (spb / 16))))
        data;
      incr next;
      Dev.advance_time dev (us 250.0);
      Dev.publish_read_into dev ~cls ~sector:0 ~count:16 buf;
      Dev.drain dev
    in
    for _ = 1 to 64 do
      round ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      round ()
    done;
    ((Gc.minor_words () -. w0) /. float_of_int runs, yields dev)
  in
  let fg, fg_yields = words_per Dev.Foreground and scrub, scrub_yields = words_per Dev.Scrub in
  Alcotest.(check bool) "foreground reads yielded to" true (fg_yields > 0);
  Alcotest.(check int) "scrub reads did not" 0 scrub_yields;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per round with yields, %.2f without" fg scrub)
    true (fg <= scrub)

(* --- scheduler allocation ------------------------------------------ *)

(* A 4x2 device and a submitter of 1-sector log-flush programs that walks
   the blocks round-robin, so every chip's queue fills alike. *)
let log_writer () =
  let dev = Dev.create ~channels:4 ~ways:2 (cfg ~num_blocks:64 ()) in
  let nblocks = (Dev.config dev).Config.num_blocks in
  let next = Array.make nblocks 0 and i = ref 0 in
  let data = sector_bytes dev 1 in
  let submit () =
    let b = !i mod nblocks in
    incr i;
    let sector = Dev.sector_of_block dev b + next.(b) in
    next.(b) <- next.(b) + 1;
    Dev.submit_write dev ~cls:Dev.Log_flush ~sector data
  in
  (dev, submit)

(* Minor words allocated by one call of [f]. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* With every chip's queue full, a 1-sector submission settles one
   completion and schedules one operation. The scheduler allocates
   nothing for it: its timelines are preallocated slots, and a tag is an
   int. What remains (14 words when this bound was set) is the chip's
   own: its operation record, its boxed clock and its copy loop's
   closure. *)
let test_submission_allocation () =
  let dev, submit = log_writer () in
  let full = Dev.num_chips dev * Dev.queue_depth dev and runs = 4096 in
  for _ = 1 to 2 * full do
    ignore (submit () : Dev.tag)
  done;
  Alcotest.(check int) "queues full" full (Dev.in_flight dev);
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (submit () : Dev.tag)
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per submission <= 32" per)
    true (per <= 32.0);
  Dev.drain dev

(* An await of an outstanding tag, which promotes it to the head of its
   chip's full queue, and a durability barrier over full queues on every
   chip allocate nothing: a tag names its chip, and a barrier sorts its
   tags in a preallocated array. *)
let test_await_barrier_allocation () =
  let dev, submit = log_writer () in
  let full = Dev.num_chips dev * Dev.queue_depth dev in
  let fill () =
    while Dev.in_flight dev < full do
      ignore (submit () : Dev.tag)
    done
  in
  fill ();
  let awaits = 256 and barriers = 32 in
  let await_words = ref 0.0 in
  for _ = 1 to awaits do
    let tag = submit () in
    await_words := !await_words +. words (fun () -> Dev.await dev tag)
  done;
  let barrier_words = ref 0.0 in
  for _ = 1 to barriers do
    fill ();
    barrier_words := !barrier_words +. words (fun () -> Dev.barrier dev);
    Alcotest.(check int) "barrier settles every log flush" 0 (Dev.in_flight dev)
  done;
  let per_await = !await_words /. float_of_int awaits
  and per_barrier = !barrier_words /. float_of_int barriers in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per await <= 2" per_await)
    true (per_await <= 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per barrier <= 2" per_barrier)
    true (per_barrier <= 2.0)

(* tpcc's preemptions on one chip allocate nothing in the scheduler
   either. With a queue-depth-64 chip full of Merge_io programs, a
   Merge_io and a Log_flush submission each first settle the earliest
   op (backpressure); the log flush then preempts the whole backlog. An
   await of the queued Merge_io tag promotes it ahead of the log flush
   and the rest of the backlog, and a barrier waits for the log flush.
   Bounds as for the 4x2 device above. *)
let test_preemption_allocation () =
  let dev = Dev.create ~channels:1 ~ways:1 ~queue_depth:64 (cfg ~num_blocks:64 ()) in
  let spb = Config.sectors_per_block (Dev.config dev) in
  let next = ref 0 and data = sector_bytes dev 1 in
  let program cls =
    (* Walks the device's sectors, erasing each block before reuse. *)
    if !next mod spb = 0 then Dev.publish_erase dev ~cls:Dev.Merge_io (!next / spb mod 64);
    let sector = !next mod Dev.num_sectors dev in
    incr next;
    Dev.submit_write dev ~cls ~sector data
  in
  let runs = 256 in
  let submit = ref 0.0 and await = ref 0.0 and barrier = ref 0.0 in
  for _ = 1 to runs do
    while Dev.in_flight dev < Dev.queue_depth dev do
      ignore (program Dev.Merge_io : Dev.tag)
    done;
    let merge = ref (program Dev.Merge_io) in
    submit := !submit +. words (fun () -> merge := program Dev.Merge_io);
    submit := !submit +. words (fun () -> ignore (program Dev.Log_flush : Dev.tag));
    await := !await +. words (fun () -> Dev.await dev !merge);
    barrier := !barrier +. words (fun () -> Dev.barrier dev)
  done;
  let per total n = total /. float_of_int (n * runs) in
  let check what total n bound =
    Alcotest.(check bool)
      (Printf.sprintf "%.1f minor words per %s <= %.0f" (per total n) what bound)
      true
      (per total n <= bound)
  in
  check "submission" !submit 2 32.0;
  check "await" !await 1 2.0;
  check "barrier" !barrier 1 2.0

(* --- erase-unit storage ------------------------------------------- *)

(* A merge programs a fresh erase unit and erases the old one, and on a
   multi-chip device the two sit on different chips. Alternate erasing a
   fully programmed block on one chip with the first full-block program
   of an erased block on the next chip: the erased block's storage must
   be reused, so after a one-cycle warm-up 200 cycles add less than one
   block (16 384 words) to the major heap. Allocating fresh storage per
   program costs at least one block per cycle; a free list private to
   each chip would allocate once on each chip the walk first reaches. *)
let test_erase_program_allocation () =
  let dev = Dev.create ~channels:4 ~ways:2 (cfg ~num_blocks:16 ()) in
  let c = Dev.config dev in
  let full = Bytes.make c.Config.block_size 'f' in
  let n = Dev.num_chips dev in
  let cycle i =
    Dev.erase_block ~cls:Dev.Merge_io dev (i mod n);
    Dev.write_sectors ~cls:Dev.Merge_io dev ~sector:(Dev.sector_of_block dev ((i + 1) mod n)) full
  in
  Dev.write_sectors ~cls:Dev.Merge_io dev ~sector:0 full;
  cycle 0;
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  for i = 1 to 200 do
    cycle i
  done;
  let words = (Gc.quick_stat ()).Gc.major_words -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words over 200 cycles < 16384" words)
    true (words < 16384.0)

(* --- reference model ------------------------------------------------ *)

let device_target dev =
  let c = Dev.config dev in
  let spb = Config.sectors_per_block c and n = Dev.num_chips dev in
  {
    Flash_model.name = "2x2 device";
    num_sectors = Dev.num_sectors dev;
    spb;
    ss = c.Config.sector_size;
    crosses = false;
    read_into = (fun ~sector ~count dst -> Dev.read_sectors_into dev ~sector ~count dst);
    write = (fun ~sector data -> Dev.write_sectors dev ~sector data);
    erase = Dev.erase_block dev;
    invalidate = (fun ~sector ~count -> Dev.invalidate_sectors dev ~sector ~count);
    state = Dev.sector_state dev;
    chip_sector = (fun s -> (s / spb / n * spb) + (s mod spb));
  }

(* Seeded random sequences against the byte-array model in
   flash_model.ml: through a 2x2 device's own surface (operations across
   a device block boundary must be rejected), and on the same device's
   four chips driven directly, whose operations may cross their own
   block boundaries. *)
let test_reference_model () =
  List.iter
    (fun seed ->
      let dev = mk ~channels:2 ~ways:2 ~num_blocks:16 () in
      Flash_model.run ~seed ~steps:1500 ~set_hook:(Dev.set_fault_hook dev) [| device_target dev |];
      let dev = mk ~channels:2 ~ways:2 ~num_blocks:16 () in
      Flash_model.run ~seed ~steps:1500 ~set_hook:(Dev.set_fault_hook dev)
        (Array.init (Dev.num_chips dev) (fun i ->
             Flash_model.of_chip ~name:(Printf.sprintf "chip %d of a 2x2 device" i) (Dev.chip dev i))))
    [ 1; 2; 3 ]

(* An erased block's old bytes never show, also once another chip of
   the same device has taken over its storage: fill device block 0 (chip
   0), erase it, program one sector and read the block back; fill and
   erase it again, program one sector of device block 1 (chip 1) and
   read that block back. *)
let test_erased_bytes_never_visible () =
  let dev = mk ~channels:2 ~ways:2 () in
  let c = Dev.config dev in
  let spb = Config.sectors_per_block c and ss = c.Config.sector_size in
  let one = Bytes.make ss 'o' in
  let read b = Dev.read_sectors dev ~sector:(b * spb) ~count:spb in
  Alcotest.(check int) "block 1 on chip 1" 1 (Dev.channel_of_block dev 1);
  Dev.write_sectors dev ~sector:0 (Bytes.make (spb * ss) 'q');
  Dev.erase_block dev 0;
  Dev.write_sectors dev ~sector:5 one;
  Flash_model.check_one_sector ~what:"same block" ~ss ~s:5 one (read 0);
  Dev.write_sectors dev ~sector:6 (Bytes.make ((spb - 6) * ss) 'r');
  Dev.erase_block dev 0;
  Dev.write_sectors dev ~sector:(spb + 9) one;
  Flash_model.check_one_sector ~what:"block on another chip" ~ss ~s:9 one (read 1);
  Alcotest.(check bool) "erased block reads 0xff" true
    (Bytes.for_all (fun ch -> ch = '\xff') (read 0))

(* --- 1ch vs 4ch logical equivalence -------------------------------- *)

let digest_of json =
  match Json.member "logical_digest" json with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "no logical_digest in bench json"

let test_geometry_equivalence () =
  let spec = { Bench.quick with Bench.transactions = 40 } in
  let one = Bench.run ~spec () in
  let four = Bench.run ~spec:{ spec with Bench.channels = 4 } () in
  Alcotest.(check string) "identical logical results" (digest_of one.Bench.json)
    (digest_of four.Bench.json)

(* --- a dead device ----------------------------------------------- *)

(* After a fail-stop every operation raises [Power_loss], host-side
   invalidation included, whatever the geometry: sector 0 stays valid. *)
let test_dead_device_refuses_invalidation () =
  List.iter
    (fun (channels, ways) ->
      let name = Printf.sprintf "%dx%d" channels ways in
      let dev = mk ~channels ~ways () in
      Dev.write_sectors dev ~sector:0 (sector_bytes dev 1);
      Dev.set_fault_hook dev (Some (fun _ _ -> Chip.Fail_stop));
      (match Dev.read_sectors dev ~sector:0 ~count:1 with
      | _ -> Alcotest.failf "%s: fail-stop read succeeded" name
      | exception Chip.Power_loss _ -> ());
      Alcotest.(check bool) (name ^ " dead") true (Dev.is_dead dev);
      (match Dev.invalidate_sectors dev ~sector:0 ~count:1 with
      | () -> Alcotest.failf "%s: dead device accepted an invalidation" name
      | exception Chip.Power_loss _ -> ());
      Alcotest.(check bool) (name ^ " sector 0 still valid") true
        (Dev.sector_state dev 0 = Chip.Valid))
    [ (1, 1); (2, 1) ]

let () =
  Alcotest.run "device"
    [
      ( "device",
        [
          Alcotest.test_case "striping" `Quick test_striping;
          Alcotest.test_case "single-chip equivalence" `Quick test_single_chip_equivalence;
          Alcotest.test_case "one-chip queue" `Quick test_one_chip_queue;
          Alcotest.test_case "plan on a wrapped chip" `Quick test_plan_on_wrapped_chip;
          Alcotest.test_case "wrapped chip's clock" `Quick test_wrapped_clock;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "priority overtakes queued" `Quick test_priority_overtakes_queued;
          Alcotest.test_case "barrier vs drain" `Quick test_barrier_vs_drain;
          Alcotest.test_case "queue-depth backpressure" `Quick test_queue_depth_backpressure;
          Alcotest.test_case "golden timelines" `Quick test_golden_timelines;
          Alcotest.test_case "reference scheduler" `Quick test_reference_scheduler;
          Alcotest.test_case "page-boundary yield" `Quick test_page_yield;
          Alcotest.test_case "await a yielded op" `Quick test_await_yielded;
          Alcotest.test_case "what never yields" `Quick test_no_yield;
          Alcotest.test_case "yield accounting" `Quick test_yield_accounting;
          Alcotest.test_case "yield allocation" `Quick test_yield_allocation;
          Alcotest.test_case "submission allocation" `Quick test_submission_allocation;
          Alcotest.test_case "await/barrier allocation" `Quick test_await_barrier_allocation;
          Alcotest.test_case "one-chip preemption allocation" `Quick test_preemption_allocation;
          Alcotest.test_case "erase/program allocation" `Quick test_erase_program_allocation;
          Alcotest.test_case "reference model" `Quick test_reference_model;
          Alcotest.test_case "erased bytes never visible" `Quick test_erased_bytes_never_visible;
          Alcotest.test_case "1ch vs 4ch digest" `Quick test_geometry_equivalence;
          Alcotest.test_case "dead device refuses invalidation" `Quick
            test_dead_device_refuses_invalidation;
        ] );
    ]
