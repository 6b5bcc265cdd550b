(* Orchestration: load cmts, build summaries, run every rule, apply
   [@lint.allow] suppressions and report. *)

type allow = { file : string; rule : string; first : int; last : int }

(* [@lint.allow "rule-id"] / [@lint.allow "a, b"]; a bare [@lint.allow]
   suppresses every rule over the attributed node. *)
let allowed_rules (attr : Parsetree.attribute) =
  if attr.attr_name.txt <> "lint.allow" then []
  else
    match attr.attr_payload with
    | Parsetree.PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        String.split_on_char ',' s |> List.map String.trim |> List.filter (fun r -> r <> "")
    | _ -> [ "*" ]

(* Suppressions carried by the typed tree's attributes: an attribute on an
   expression, pattern, value or module binding covers the lines of that
   node; a floating [@@@lint.allow] covers its whole file. *)
let allows (u : Sema_cmt.unit_info) =
  let acc = ref [] in
  let file = ref u.source in
  let span first last attrs =
    List.iter
      (fun a ->
        List.iter (fun rule -> acc := { file = !file; rule; first; last } :: !acc) (allowed_rules a))
      attrs
  in
  let node (loc : Location.t) attrs =
    span loc.loc_start.Lexing.pos_lnum loc.loc_end.Lexing.pos_lnum attrs
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun self e ->
          node e.exp_loc e.exp_attributes;
          List.iter (fun (_, loc, attrs) -> node loc attrs) e.exp_extra;
          default.expr self e);
      pat =
        (fun self p ->
          node p.pat_loc p.pat_attributes;
          default.pat self p);
      value_binding =
        (fun self vb ->
          node vb.vb_loc vb.vb_attributes;
          default.value_binding self vb);
      module_binding =
        (fun self mb ->
          node mb.mb_loc mb.mb_attributes;
          default.module_binding self mb);
      structure_item =
        (fun self item ->
          (match item.str_desc with Tstr_attribute a -> span 1 max_int [ a ] | _ -> ());
          default.structure_item self item);
      signature_item =
        (fun self item ->
          (match item.sig_desc with Tsig_attribute a -> span 1 max_int [ a ] | _ -> ());
          default.signature_item self item);
    }
  in
  it.structure it u.structure;
  Option.iter
    (fun sg ->
      file := Sema_cmt.interface_source u;
      it.signature it sg)
    u.signature;
  !acc

let check units =
  let table = Sema_summary.build units in
  let findings =
    List.concat_map (fun u -> Sema_tagflow.check table u @ Sema_rules.local u) units
    @ Sema_rules.exception_escape units table
  in
  let allows = List.concat_map allows units in
  let allowed (f : Sema_finding.t) =
    List.exists
      (fun a ->
        a.file = f.file && (a.rule = "*" || a.rule = f.rule) && a.first <= f.line
        && f.line <= a.last)
      allows
  in
  Sema_finding.dedup (List.filter (fun f -> not (allowed f)) findings)

let load ?build_root ?(source_root = ".") roots =
  let build_root =
    match build_root with Some r -> r | None -> Sema_cmt.default_build_root ()
  in
  Sema_cmt.load ~build_root ~source_root roots

let dump_summaries ?build_root ?source_root ppf roots =
  let table = Sema_summary.build (load ?build_root ?source_root roots) in
  let keys =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])
  in
  List.iter
    (fun k ->
      let s = Hashtbl.find table k in
      let raises = String.concat "," (Sema_summary.SSet.elements s.raises) in
      if raises <> "" || s.settles || s.barriers || s.returns_tag then
        Format.fprintf ppf "%s raises=[%s]%s%s%s@." k raises
          (if s.settles then " settles" else "")
          (if s.barriers then " barriers" else "")
          (if s.returns_tag then " returns-tag" else ""))
    keys

(* [--json FILE] mirrors the report as JSON, [--rule ID] (repeatable)
   filters to the given rules, everything else is a root. *)
let parse_args args =
  let rec go json rules roots = function
    | "--json" :: path :: rest -> go (Some path) rules roots rest
    | "--rule" :: id :: rest -> go json (id :: rules) roots rest
    | arg :: rest -> go json rules (arg :: roots) rest
    | [] -> (json, List.rev rules, List.rev roots)
  in
  go None [] [] args

let main ?(ppf = Format.std_formatter) ?json_out ?(rules = []) ?build_root
    ?source_root roots =
  let roots = if roots = [] then [ "lib"; "bin"; "bench" ] else roots in
  let findings = check (load ?build_root ?source_root roots) in
  let findings =
    if rules = [] then findings
    else List.filter (fun (f : Sema_finding.t) -> List.mem f.rule rules) findings
  in
  Sema_finding.print_report ppf findings;
  (match json_out with
  | Some path ->
      let json = Sema_finding.to_json_string findings in
      if path = "-" then Format.fprintf ppf "%s@." json
      else (
        let oc = open_out path in
        output_string oc json;
        output_char oc '\n';
        close_out oc)
  | None -> ());
  if findings = [] then 0 else 1
