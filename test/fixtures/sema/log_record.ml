(* Mock carrying the page rebuild's failure under its contract name. *)

type replay_failure = { page : int; txid : int; slot : int }

exception Replay_failed of replay_failure
