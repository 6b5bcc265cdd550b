module Chip = Flash_sim.Flash_chip

type t = int -> Chip.op -> Chip.fault_action

let none : t = fun _ _ -> Chip.Proceed

let crash_at ?(tear = false) point : t =
 fun idx op ->
  if idx < point then Chip.Proceed
  else
    match op with
    | Chip.Op_program { count; _ } when tear && count > 1 ->
        (* Tear the program in half: the first sectors land, the rest stay
           erased, and the chip dies — the worst-case partial page write. *)
        Chip.Tear (count / 2)
    | _ -> Chip.Fail_stop

let transient_read ~point : t =
 fun idx op ->
  match op with
  | Chip.Op_read _ when idx = point -> Chip.Read_fault
  | _ -> Chip.Proceed

(* Deterministic pseudo-randomness for the probabilistic plans: a plan
   must give the same answer for the same (seed, op index) in every run,
   so we hash instead of drawing from a stateful generator. *)
let draw ~seed idx salt =
  float_of_int (Hashtbl.hash (seed, idx, salt) land 0xFFFFFF) /. 16777216.0

let flaky_reads ~seed ?(correctable = 0.05) ?(transient = 0.01) ?(min_sector = 0) () : t
    =
  (* The first read fails whatever the draw, so every seed exercises
     read retry: a short run can otherwise meet no transient fault. *)
  let first = ref true in
  fun idx op ->
    match op with
    | Chip.Op_read { sector; _ } when sector >= min_sector ->
        let forced = !first in
        first := false;
        if forced || draw ~seed idx 0 < transient then Chip.Read_fault
        else if draw ~seed idx 1 < correctable then Chip.Read_correctable
        else Chip.Proceed
    | _ -> Chip.Proceed

let program_failures ~seed ~rate ?(min_sector = 0) () : t =
 fun idx op ->
  match op with
  | Chip.Op_program { sector; _ } when sector >= min_sector && draw ~seed idx 2 < rate
    ->
      Chip.Program_fail
  | _ -> Chip.Proceed

let erase_failures ~seed ~rate ?(first_block = 0) () : t =
 fun idx op ->
  match op with
  | Chip.Op_erase { block } when block >= first_block && draw ~seed idx 3 < rate ->
      Chip.Erase_fail
  | _ -> Chip.Proceed

let wear_out ~seed ~first_block ~min_cycles ~max_cycles () : t =
  (* Stateful by design: each block past [first_block] gets a seeded
     endurance budget; once its erase count (counted here, not by the
     chip) exceeds the budget every further erase fails — a permanently
     worn-out block. Blocks below [first_block] (the system-log region,
     which sits outside the bad-block manager) never wear. *)
  let erases = Hashtbl.create 64 in
  let budget b = min_cycles + (Hashtbl.hash (seed, b) mod (max_cycles - min_cycles + 1)) in
  fun _idx op ->
    match op with
    | Chip.Op_erase { block } when block >= first_block ->
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt erases block) in
        Hashtbl.replace erases block n;
        if n > budget block then Chip.Erase_fail else Chip.Proceed
    | _ -> Chip.Proceed

let program_fail_then_crash ~point ~crash_after ?(min_sector = 0) () : t =
  let failed_at = ref (-1) in
  fun idx op ->
    if !failed_at >= 0 && idx >= !failed_at + crash_after then Chip.Fail_stop
    else
      match op with
      | Chip.Op_program { sector; _ }
        when !failed_at < 0 && idx >= point && sector >= min_sector ->
          failed_at := idx;
          Chip.Program_fail
      | _ -> Chip.Proceed

let seq (plans : t list) : t =
 fun idx op ->
  let rec first = function
    | [] -> Chip.Proceed
    | p :: rest -> ( match p idx op with Chip.Proceed -> first rest | a -> a)
  in
  first plans

let install chip (plan : t) = Chip.set_fault_hook chip (Some plan)
let clear chip = Chip.set_fault_hook chip None
