(* ipl_sema: the analyser run over the deliberately broken fixture
   library in test/fixtures/sema (and the executable beside it). The
   fixtures link against mock Flash_device / Flash_chip / Ipl_engine
   modules whose canonical paths match the contract tables, so every rule
   can be exercised without the real storage stack. Rules keyed on a
   unit's directory or file name are checked by relabeling a fixture unit.

   The test binary runs from _build/default/test, so both the cmt tree
   and the copied sources live one level up. *)

module Driver = Sema.Sema_driver
module Finding = Sema.Sema_finding

let fixture_dir = "test/fixtures/sema"
let units = lazy (Driver.load ~build_root:".." ~source_root:".." [ fixture_dir ])
let findings = lazy (Driver.check (Lazy.force units))

(* The findings of one fixture unit analysed as if its source were
   [source], as (file basename, line) pairs of [rule]. *)
let relabeled ~rule file source =
  let u =
    List.find
      (fun (u : Sema.Sema_cmt.unit_info) -> u.source = fixture_dir ^ "/" ^ file)
      (Lazy.force units)
  in
  Driver.check [ { u with source; dir = Filename.dirname source } ]
  |> List.filter_map (fun (f : Finding.t) ->
         if f.rule = rule then Some (Filename.basename f.file, f.line) else None)

let check_sites msg expected sites =
  Alcotest.(check (list (pair string int))) msg expected (List.sort compare sites)

let in_file ?rule file =
  List.filter
    (fun (f : Finding.t) ->
      f.Finding.file = fixture_dir ^ "/" ^ file
      && match rule with None -> true | Some r -> f.Finding.rule = r)
    (Lazy.force findings)

let lines fs = List.map (fun (f : Finding.t) -> f.Finding.line) fs

let check_lines msg expected fs =
  Alcotest.(check (list int)) msg expected (List.sort compare (lines fs))

(* ---- sema-tag-leak ----------------------------------------------------- *)

let test_tag_leak () =
  (* drop_tag (let _), branch_leak (then-only await), ignored_tag (ignore);
     the clean await / barrier / escape / publish variants stay silent. *)
  check_lines "three seeded leaks, clean variants silent" [ 9; 14; 19 ]
    (in_file ~rule:"sema-tag-leak" "fix_tag_leak.ml");
  Alcotest.(check int)
    "no other rule fires on the tag fixture" 3
    (List.length (in_file "fix_tag_leak.ml"))

let test_tag_cross_module () =
  (* ok_cross hands its tag to a helper the summary table knows awaits;
     bad_cross hands it to one that provably does not. *)
  check_lines "only the non-settling callee leaks" [ 14 ]
    (in_file ~rule:"sema-tag-leak" "fix_cross_tag.ml");
  Alcotest.(check int)
    "the settling helper itself is clean" 0
    (List.length (in_file "fix_settle_helper.ml"))

(* ---- sema-unchecked-result --------------------------------------------- *)

let test_unchecked_result () =
  check_lines "let _ and ignore both flagged; match and a record named result clean" [ 7; 11 ]
    (in_file ~rule:"sema-unchecked-result" "fix_unchecked.ml")

(* ---- dropped chip-operation returns and the other ported rules ---------- *)

let test_ignored_flash () =
  check_lines "ignore and let _ of read_sectors, bound and non-flash calls clean" [ 9; 13 ]
    (in_file ~rule:"sema-unchecked-result" "fix_flash_result.ml")

let test_swallow () =
  check_lines "wildcard, unused name and or-wildcard; specific and re-raise clean"
    [ 4; 7; 16 ]
    (in_file ~rule:"no-silent-swallow" "fix_swallow.ml")

let test_geometry () =
  check_lines "page, sector and block literals; 4096 and 100 clean" [ 4; 5; 6 ]
    (in_file ~rule:"no-magic-geometry" "fix_geometry.ml");
  check_sites "config modules may define geometry" []
    (relabeled ~rule:"no-magic-geometry" "fix_geometry.ml" "lib/core/ipl_config.ml")

let test_flash_call () =
  let writes = [ ("fake.ml", 7); ("fake.ml", 8) ] in
  check_sites "write and erase outside the device layers" writes
    (relabeled ~rule:"flash-call" "fix_flash_call.ml" "lib/workload/fake.ml");
  check_sites "lib/core goes through the device, not the chip" writes
    (relabeled ~rule:"flash-call" "fix_flash_call.ml" "lib/core/fake.ml");
  check_sites "the device layer may program the chip" []
    (relabeled ~rule:"flash-call" "fix_flash_call.ml" "lib/device/fake.ml")

let test_banned () =
  check_lines "Obj.magic, Bytes.unsafe_get, compare on bytes; scalars and Bytes.equal clean"
    [ 4; 5; 6 ]
    (in_file ~rule:"banned-construct" "fix_banned.ml");
  check_sites "Bytes.unsafe_* inside byte_arena.ml"
    [ ("byte_arena.ml", 4); ("byte_arena.ml", 6) ]
    (relabeled ~rule:"banned-construct" "fix_banned.ml" "lib/util/byte_arena.ml")

let test_allow () =
  check_lines "rule-scoped, bare and line-scoped [@lint.allow]" [ 6; 12 ]
    (in_file "fix_allow.ml");
  check_lines "[@@@lint.allow] covers the whole file" [] (in_file "fix_allow_file.ml")

(* ---- layering (resolved reference sites, interfaces included) ----------- *)

let test_layering () =
  let layering source = relabeled ~rule:"layering" "fix_layering.ml" source in
  check_sites "util may depend on neither core nor flash"
    [ ("fake.ml", 4); ("fake.ml", 5); ("fake.mli", 3); ("fake.mli", 4) ]
    (layering "lib/util/fake.ml");
  check_sites "flash may not reach back into the engine"
    [ ("fake.ml", 4); ("fake.mli", 3) ]
    (layering "lib/flash/fake.ml");
  check_sites "core -> flash is a whitelisted edge" [] (layering "lib/core/fake.ml");
  check_sites "a sibling module shadows a like-named wrapper" [] (layering "lib/fault/fake.ml");
  check_sites "unregistered lib directory must be added to the table" [ ("fake.ml", 1) ]
    (layering "lib/zzz/fake.ml");
  check_sites "bin may use every library" [] (layering "bin/fake.ml")

let test_mli_coverage () =
  check_sites "lib implementation without an interface" [ ("a.ml", 1) ]
    (relabeled ~rule:"mli-coverage" "fix_geometry.ml" "lib/core/a.ml");
  check_sites "a .cmti satisfies the rule" []
    (relabeled ~rule:"mli-coverage" "fix_layering.ml" "lib/core/a.ml");
  check_sites "executables are exempt" []
    (relabeled ~rule:"mli-coverage" "fix_geometry.ml" "bin/a.ml")

let test_executable () =
  check_lines "a violation in an executable is found" [ 2 ]
    (in_file ~rule:"sema-determinism" "exe/fix_exe.ml")

(* ---- sema-exception-escape --------------------------------------------- *)

let test_exception_escape () =
  (* boom raises a contract exception and is mli-public; contained catches
     it; hidden raises but is not exported. *)
  check_lines "only the public raiser escapes" [ 5 ]
    (in_file ~rule:"sema-exception-escape" "fix_exn_escape.ml")

let test_exception_cross_module () =
  (* kaboom's raise set crosses the unit boundary through the summary
     table: safe subtracts it with a handler, leaky does not. *)
  check_lines "the cross-module raiser is flagged at home" [ 5 ]
    (in_file ~rule:"sema-exception-escape" "fix_raiser.ml");
  check_lines "bare transitive call escapes, handled call is clean" [ 7 ]
    (in_file ~rule:"sema-exception-escape" "fix_cross_catch.ml")

let test_exception_replay () =
  (* The page rebuild's failure is a contract exception too: rebuild
     lets it out of the public surface; rebuild_result maps it to a
     typed error. *)
  check_lines "the replay failure escapes, the mapped variant is clean" [ 5 ]
    (in_file ~rule:"sema-exception-escape" "fix_replay_escape.ml")

(* ---- sema-determinism --------------------------------------------------- *)

let test_determinism () =
  (* gettimeofday, Sys.time, self_init, Hashtbl ~random:true; the
     fixed-seed Hashtbl.create is clean. *)
  check_lines "all four nondeterminism sources flagged" [ 4; 7; 10; 13 ]
    (in_file ~rule:"sema-determinism" "fix_determinism.ml")

(* ---- suppressions ------------------------------------------------------- *)

let test_suppression () =
  (* Identical violations; only the one without [@@lint.allow] surfaces. *)
  check_lines "lint.allow silences the typed checker too" [ 12 ]
    (in_file ~rule:"sema-tag-leak" "fix_suppressed.ml")

(* ---- reporting ----------------------------------------------------------- *)

let test_report_format () =
  let f =
    Finding.make ~rule:"no-magic-geometry" ~file:"lib/core/fake.ml" ~line:7
      "raw geometry literal 8192"
  in
  Alcotest.(check string)
    "file:line rule-id message" "lib/core/fake.ml:7 no-magic-geometry raw geometry literal 8192 [error]"
    (Format.asprintf "%a" Finding.pp f)

let test_json_report () =
  let fs = Lazy.force findings in
  let json = Finding.to_json_string fs in
  Alcotest.(check string)
    "byte-stable for identical inputs" json
    (Finding.to_json_string fs);
  (match Ipl_util.Json.of_string json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report is not valid JSON: %s" e);
  let prefix = {|{"schema":"ipl-findings/1","tool":"ipl_sema"|} in
  Alcotest.(check string)
    "schema header" prefix
    (String.sub json 0 (String.length prefix))

let test_rule_filter () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let rc =
    Driver.main ~ppf ~rules:[ "sema-determinism" ] ~build_root:".."
      ~source_root:".." [ fixture_dir ]
  in
  Format.pp_print_flush ppf ();
  Alcotest.(check int) "seeded errors gate the exit code" 1 rc;
  let report = Buffer.contents buf in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  String.split_on_char '\n' report
  |> List.iter (fun line ->
         let mentions id = contains line id in
         if String.length line > 0 && mentions "fix_" then
           Alcotest.(check bool)
             ("filtered report line mentions only the requested rule: " ^ line)
             true (mentions "sema-determinism"))

let () =
  Alcotest.run "sema"
    [
      ( "tag-leak",
        [
          Alcotest.test_case "intra-procedural" `Quick test_tag_leak;
          Alcotest.test_case "cross-module settle" `Quick test_tag_cross_module;
        ] );
      ( "unchecked-result",
        [ Alcotest.test_case "dropped results" `Quick test_unchecked_result ] );
      ( "rules",
        [
          Alcotest.test_case "no-silent-swallow" `Quick test_swallow;
          Alcotest.test_case "no-ignored-flash-result" `Quick test_ignored_flash;
          Alcotest.test_case "no-magic-geometry" `Quick test_geometry;
          Alcotest.test_case "flash-call" `Quick test_flash_call;
          Alcotest.test_case "banned-construct" `Quick test_banned;
        ] );
      ( "layering",
        [
          Alcotest.test_case "dependency graph" `Quick test_layering;
          Alcotest.test_case "mli coverage" `Quick test_mli_coverage;
        ] );
      ( "loading", [ Alcotest.test_case "executable units" `Quick test_executable ] );
      ( "exception-escape",
        [
          Alcotest.test_case "public surface" `Quick test_exception_escape;
          Alcotest.test_case "cross-module summary" `Quick test_exception_cross_module;
          Alcotest.test_case "replay failure" `Quick test_exception_replay;
        ] );
      ( "determinism",
        [ Alcotest.test_case "banned idents" `Quick test_determinism ] );
      ( "suppressions",
        [
          Alcotest.test_case "lint.allow attribute" `Quick test_allow;
          Alcotest.test_case "lint.allow parity" `Quick test_suppression;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "finding format" `Quick test_report_format;
          Alcotest.test_case "json report" `Quick test_json_report;
          Alcotest.test_case "rule filter" `Quick test_rule_filter;
        ] );
    ]
