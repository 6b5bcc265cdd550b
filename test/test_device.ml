(* Tests for the multi-channel flash device: block striping, single-chip
   bit-for-bit equivalence, a one-chip device's queue and its wrapped
   chip's fault numbering and clock, deterministic virtual-time scheduling,
   op-class priorities with deadline promotion, queue-depth backpressure,
   barrier vs drain semantics, seeded timelines pinned to golden
   constants (tpcc's preemption pattern among them), the scheduler's
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
    (2, 1, 1, 1, "6367677551a968b796260bc01ec09bdd", "ae512a3f1bdec045edabfbb3924ec2c8");
    (2, 1, 32, 2, "ba3a08360cbc69464fbc6cfdfec5e66f", "43bf3746ab1d4473dce4cf825a837d79");
    (2, 2, 2, 3, "90ffd9358822b352b6d514ab750ab718", "5d14406cfbe9cd5c85f1c58fb94144b3");
    (3, 1, 32, 4, "65df0ea2be6ca76a716ef8b34cef583c", "a926ca557040debad15ccab9cf552726");
    (4, 1, 2, 5, "b9a04bff9e46b6e5f0f8becb9ad0a2f8", "e9e09d667f150c03ceb9373a1394a176");
    (2, 3, 1, 6, "c55fdaf15f98c4e31f2f42e69ecd1ac4", "b4a629632028932a53eca7601e8bb04f");
    (4, 2, 32, 7, "3289b024bde18db5e434ba6faad62ca6", "e9df62197ed7c9eaf2e8dbec0214adfa");
    (2, 4, 2, 8, "0c7de9b13cda4587120231fdd9c3839c", "bed0bf4a15d9b57f6d63ef6fd890d287");
    (4, 2, 64, 9, "68553f66190ce5223184539957cfa76b", "c2c18c2b1425cf61e5550ee9f4cff4d2");
    (2, 2, 64, 10, "923d557b4fd2db5f3a68b2ad98792220", "c68b1c1c9364e304f4674ead7c114e34");
    (* One chip: a burst of mixed-class ops queued on it is tpcc's
       pattern. *)
    (1, 1, 32, 12, "f0a7df8cde8582e4865cf37f60ef9ba2", "04f5603db92a475fad234a8be38856f0");
    (1, 1, 64, 13, "7520f924a371451c8abe9496402be8c3", "a296e2aed649e76253ec1e34a06114f9");
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
    (1, 1, 64, 14, "1ed99b430e9fbdb2bfc79d2becc3b9aa", "d47bfff2be2f06c67520287a0024660e");
    (4, 2, 32, 15, "f93e4b0e42c5d31a6c9165f4b759c2f2", "43d3db2a397cb06eb8f8f4f14ba03ce5");
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
