(* Seeded escape of the page rebuild's failure plus a clean control:
   [rebuild] lets Log_record.Replay_failed out of a public function;
   [rebuild_result] maps it to a typed error, as the engine's trap does. *)

let rebuild page = if page < 0 then raise (Log_record.Replay_failed { page; txid = 1; slot = 0 })

let rebuild_result page =
  try Ok (rebuild page) with Log_record.Replay_failed f -> Error f.Log_record.slot
