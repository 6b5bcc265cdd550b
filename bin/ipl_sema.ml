(* Repo static-analysis gate over dune-emitted .cmt/.cmti files: layering
   and flash-safety invariants plus the typed dataflow rules.

     ipl_sema [--json FILE] [--rule ID]... [DIR]...
     (default roots: lib bin bench)

   Analyzes the build context next to the sources (_build/default when
   present, "." inside a build context / dune rule); build with
   `dune build @check` first so executables have cmts. Exits 1 when any
   finding remains unsuppressed. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "--dump" :: roots ->
      let roots = if roots = [] then [ "lib"; "bin"; "bench" ] else roots in
      Sema.Sema_driver.dump_summaries Format.std_formatter roots
  | _ ->
      let json_out, rules, roots = Sema.Sema_driver.parse_args args in
      exit (Sema.Sema_driver.main ?json_out ~rules roots)
