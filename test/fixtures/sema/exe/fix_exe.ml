(* FINDING: executables are analysed like libraries. *)
let started = Sys.time ()
