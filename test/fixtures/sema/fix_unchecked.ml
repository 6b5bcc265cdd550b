(* Seeded sema-unchecked-result violations plus a clean control. *)

let engine : Ipl_engine.t = ()

(* FINDING: result dropped with 'let _'. *)
let drop () =
  let _ = Ipl_engine.commit_result engine 0 in
  ()

(* FINDING: result swallowed by ignore. *)
let swallow () = ignore (Ipl_engine.commit_result engine 1)

(* clean: matched. *)
let checked () =
  match Ipl_engine.commit_result engine 2 with
  | Ok () -> ()
  | Error e -> failwith (Ipl_engine.error_to_string e)

(* clean: a record that happens to be named result. *)
type result = { passed : bool }

let outcome () = { passed = true }
let record () = ignore (outcome ())
