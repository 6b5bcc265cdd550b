(* A byte-array reference model of flash contents, and a seeded random
   exerciser that checks chips and devices against it. The model holds what
   every sector must read back as: 0xff while it is free, the last
   programmed bytes once it is valid or invalid. Shared by test_flash and
   test_device. *)

module Chip = Flash_sim.Flash_chip

(* One addressable flash surface under test: a bare chip, a device, or
   one chip of a device driven directly. *)
type target = {
  name : string;
  num_sectors : int;
  spb : int;  (* sectors per erase block *)
  ss : int;  (* sector size, bytes *)
  crosses : bool;
      (* whether one operation may span an erase-block boundary; when
         false such an operation must be rejected with [Invalid_argument]
         and change nothing *)
  read_into : sector:int -> count:int -> bytes -> unit;
  write : sector:int -> bytes -> unit;
  erase : int -> unit;
  invalidate : sector:int -> count:int -> unit;
  state : int -> Chip.sector_state;
  chip_sector : int -> int;
      (* the chip-local address a chip exception names for a sector *)
}

type model = { data : Bytes.t; st : Chip.sector_state array }

let model_of t =
  { data = Bytes.make (t.num_sectors * t.ss) '\xff'; st = Array.make t.num_sectors Chip.Free }

let state_name = function Chip.Free -> "free" | Chip.Valid -> "valid" | Chip.Invalid -> "invalid"

let check_read t m ~what ~sector ~count =
  let dst = Bytes.make (count * t.ss) 'Z' in
  t.read_into ~sector ~count dst;
  let want = Bytes.sub m.data (sector * t.ss) (count * t.ss) in
  if not (Bytes.equal dst want) then begin
    let i = ref 0 in
    while Bytes.get dst !i = Bytes.get want !i do
      incr i
    done;
    let s = sector + (!i / t.ss) in
    Alcotest.failf "%s, %s: read of %d sectors at %d differs from the model at sector %d (%s)"
      t.name what count sector s (state_name m.st.(s))
  end

(* Read the whole surface block by block and compare every sector's
   bytes and state with the model. *)
let check_all t m ~what =
  for b = 0 to (t.num_sectors / t.spb) - 1 do
    check_read t m ~what ~sector:(b * t.spb) ~count:t.spb
  done;
  for s = 0 to t.num_sectors - 1 do
    if t.state s <> m.st.(s) then
      Alcotest.failf "%s, %s: sector %d is %s, model says %s" t.name what s (state_name (t.state s))
        (state_name m.st.(s))
  done

(* A whole-block read [got] must hold [one] in sector [s] and 0xff in
   every other sector. *)
let check_one_sector ~what ~ss ~s one got =
  let want = Bytes.make (Bytes.length got) '\xff' in
  Bytes.blit one 0 want (s * ss) ss;
  Alcotest.(check bool) what true (Bytes.equal got want)

let expect_rejected f =
  match f () with
  | () -> Alcotest.fail "an operation across an erase-block boundary was accepted"
  | exception Invalid_argument _ -> ()

(* [run ~seed ~steps ~set_hook targets] drives [steps] random operations,
   each on a randomly picked target: reads and programs of 1-12 sectors
   (sometimes up to two blocks), a quarter of them placed across an
   erase-block boundary; block erases; invalidations. A few programs are
   torn ([Tear k], then power is restored) or silently corrupted
   ([Flip_bit]); programs over written sectors must raise
   [Write_to_unerased]. Every read is checked against the model, and the
   whole of every target at the end. [set_hook] installs the fault hook
   every target consults (the device's, for a device's chips). *)
let run ~seed ~steps ~set_hook targets =
  let rng = Random.State.make [| seed |] in
  let pick k = Random.State.int rng k in
  let models = Array.map model_of targets in
  let armed = ref None in
  let hook _ op =
    match (op, !armed) with
    | Chip.Op_program _, Some a ->
        armed := None;
        a
    | _ -> Chip.Proceed
  in
  set_hook (Some hook);
  let tears = ref 0 and flips = ref 0 and crossing = ref 0 and recycled = ref 0 in
  let erased = Array.map (fun t -> Array.make (t.num_sectors / t.spb) false) targets in
  for step = 1 to steps do
    let ti = pick (Array.length targets) in
    let t = targets.(ti) and m = models.(ti) in
    let what = Printf.sprintf "seed %d step %d" seed step in
    let range () =
      let count = if pick 10 = 0 then 1 + pick (2 * t.spb) else 1 + pick 12 in
      let count = min count t.num_sectors in
      let nblocks = t.num_sectors / t.spb in
      if count >= 2 && nblocks >= 2 && pick 4 = 0 then begin
        (* straddle the start of block [b] *)
        let b = 1 + pick (nblocks - 1) in
        let sector = (b * t.spb) - 1 - pick (min (count - 1) (b * t.spb)) in
        let sector = min sector (t.num_sectors - count) in
        (sector, count)
      end
      else (pick (t.num_sectors - count + 1), count)
    in
    let crosses sector count = sector / t.spb <> (sector + count - 1) / t.spb in
    match pick 100 with
    | r when r < 35 ->
        let sector, count = range () in
        if crosses sector count && not t.crosses then
          expect_rejected (fun () -> t.read_into ~sector ~count (Bytes.create (count * t.ss)))
        else begin
          if crosses sector count then incr crossing;
          check_read t m ~what ~sector ~count
        end
    | r when r < 75 -> (
        let sector, count = range () in
        let len = count * t.ss in
        let data = Bytes.init len (fun _ -> Char.chr (pick 256)) in
        let first_written =
          let rec go i =
            if i >= count then None
            else if m.st.(sector + i) <> Chip.Free then Some (sector + i)
            else go (i + 1)
          in
          go 0
        in
        if crosses sector count && not t.crosses then
          expect_rejected (fun () -> t.write ~sector data)
        else
          match first_written with
          | Some s -> (
              match t.write ~sector data with
              | () -> Alcotest.failf "%s, %s: program over written sector %d accepted" t.name what s
              | exception Chip.Write_to_unerased s' ->
                  if s' <> t.chip_sector s then
                    Alcotest.failf "%s, %s: program over written sector %d names chip sector %d"
                      t.name what s s')
          | None ->
              if crosses sector count then incr crossing;
              let b0 = sector / t.spb in
              if erased.(ti).(b0) then begin
                incr recycled;
                erased.(ti).(b0) <- false
              end;
              let fault =
                match pick 40 with
                | 0 -> Some (Chip.Tear (pick count))
                | 1 -> Some (Chip.Flip_bit (pick len))
                | _ -> None
              in
              armed := fault;
              let programmed k =
                Bytes.blit data 0 m.data (sector * t.ss) (k * t.ss);
                Array.fill m.st sector k Chip.Valid
              in
              (match (t.write ~sector data, fault) with
              | (), Some (Chip.Flip_bit off) ->
                  incr flips;
                  programmed count;
                  let pos = (sector * t.ss) + off in
                  Bytes.set m.data pos (Char.chr (Char.code (Bytes.get m.data pos) lxor 0x10))
              | (), _ -> programmed count
              | exception Chip.Power_loss _ -> (
                  match fault with
                  | Some (Chip.Tear k) ->
                      incr tears;
                      programmed k;
                      set_hook None;
                      set_hook (Some hook)
                  | _ -> Alcotest.failf "%s, %s: unexpected power loss" t.name what));
              armed := None)
    | r when r < 88 ->
        let b = pick (t.num_sectors / t.spb) in
        t.erase b;
        erased.(ti).(b) <- true;
        Bytes.fill m.data (b * t.spb * t.ss) (t.spb * t.ss) '\xff';
        Array.fill m.st (b * t.spb) t.spb Chip.Free
    | _ ->
        let sector, count = range () in
        if crosses sector count && not t.crosses then
          expect_rejected (fun () -> t.invalidate ~sector ~count)
        else begin
          t.invalidate ~sector ~count;
          for s = sector to sector + count - 1 do
            if m.st.(s) = Chip.Valid then m.st.(s) <- Chip.Invalid
          done
        end
  done;
  set_hook None;
  Array.iteri (fun i t -> check_all t models.(i) ~what:(Printf.sprintf "seed %d end" seed)) targets;
  let label s = Printf.sprintf "seed %d: %s" seed s in
  Alcotest.(check bool) (label "a torn program ran") true (!tears > 0);
  Alcotest.(check bool) (label "a bit flip ran") true (!flips > 0);
  Alcotest.(check bool) (label "an erased block was programmed again") true (!recycled > 0);
  if Array.exists (fun t -> t.crosses) targets then
    Alcotest.(check bool) (label "an operation crossed a block boundary") true (!crossing > 0)

let of_chip ?(name = "chip") chip =
  let c = Chip.config chip in
  {
    name;
    num_sectors = Chip.num_sectors chip;
    spb = Flash_sim.Flash_config.sectors_per_block c;
    ss = c.Flash_sim.Flash_config.sector_size;
    crosses = true;
    read_into = (fun ~sector ~count dst -> Chip.read_sectors_into chip ~sector ~count dst);
    write = (fun ~sector data -> Chip.write_sectors chip ~sector data);
    erase = Chip.erase_block chip;
    invalidate = (fun ~sector ~count -> Chip.invalidate_sectors chip ~sector ~count);
    state = Chip.sector_state chip;
    chip_sector = Fun.id;
  }
