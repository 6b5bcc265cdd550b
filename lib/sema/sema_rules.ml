(* The per-unit rules, run in one walk over a unit's typed tree and its
   interface (layering, flash-call, no-silent-swallow, no-magic-geometry,
   banned-construct, mli-coverage, sema-determinism, sema-unchecked-result),
   and exception-escape over the summary table. Tag-leak lives in
   Sema_tagflow. *)

open Typedtree
module Summary = Sema_summary
module SSet = Summary.SSet

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let within dirs dir =
  List.exists (fun d -> dir = d || String.starts_with ~prefix:(d ^ "/") dir) dirs

(* A catch-all handler: [Some None] for [_], [Some (Some id)] when the
   pattern binds the exception to [id]. *)
let rec catch_all (p : pattern) =
  match p.pat_desc with
  | Tpat_any -> Some None
  | Tpat_var (id, _) -> Some (Some id)
  | Tpat_alias (q, id, _) -> Option.map (fun _ -> Some id) (catch_all q)
  | Tpat_or (a, b, _) -> ( match catch_all a with None -> catch_all b | r -> r)
  | _ -> None

let mentions id e =
  let found = ref false in
  Summary.iter_all
    (fun e ->
      match e.exp_desc with
      | Texp_ident (Path.Pident i, _, _) when Ident.same i id -> found := true
      | _ -> ())
    e;
  !found

let is_bytes ty =
  match Sema_path.type_path ty with Some p -> Path.same p Predef.path_bytes | None -> false

(* An explicitly passed [~random]: an omitted optional shows up as
   (Optional, None) or as an auto-generated None constructor. *)
let passes_random args =
  List.exists
    (fun (lbl, arg) ->
      match (lbl, arg) with
      | Asttypes.Labelled "random", Some _ -> true
      | Asttypes.Optional "random", Some { exp_desc = Texp_construct (_, cd, _); _ } ->
          cd.Types.cstr_name <> "None"
      | Asttypes.Optional "random", Some _ -> true
      | _ -> false)
    args

let local (u : Sema_cmt.unit_info) =
  let findings = ref [] in
  let file = ref u.source in
  let add_at rule line msg =
    findings := Sema_finding.make ~rule ~file:!file ~line msg :: !findings
  in
  let add rule loc msg = add_at rule (line_of loc) msg in
  let canon = Sema_path.canon u.env in
  let layer = Sema_config.library_of_dir u.dir in
  let in_lib = String.starts_with ~prefix:"lib/" u.dir in
  let flash_calls_allowed = within Sema_config.flash_call_allowed_dirs u.dir in
  let geometry_allowed =
    List.mem (Filename.basename u.source) Sema_config.geometry_config_files
  in
  let unsafe_allowed = List.mem u.source Sema_config.bytes_unsafe_allowed_files in
  let clock_allowed = List.mem u.source Sema_config.determinism_whitelist_files in
  (* layering: the library a resolved path lives in is its canonical head. *)
  let reference loc p =
    match (layer, canon p) with
    | Some lib, head :: _
      when head <> lib.wrapper
           && List.mem head Sema_config.wrapper_names
           && not (List.mem head lib.allowed) ->
        add "layering" loc
          (Printf.sprintf "%s (library %s) may not depend on %s" lib.wrapper lib.dir head)
    | _ -> ()
  in
  let type_reference loc ty = Option.iter (reference loc) (Sema_path.type_path ty) in
  let constructor loc (cd : Types.constructor_description) =
    match cd.cstr_tag with
    | Types.Cstr_extension (p, _) -> reference loc p
    | _ -> type_reference loc cd.cstr_res
  in
  let ident loc p =
    reference loc p;
    let comps = canon p in
    let last = Sema_path.last comps in
    if Sema_path.is_flash_op Sema_config.flash_mutators comps && not flash_calls_allowed then
      add "flash-call" loc
        (Printf.sprintf
           "direct call to Flash_chip.%s outside the device and raw-flash layers (lib/device, \
            lib/baseline, lib/ftl)"
           last);
    if last = "magic" && Sema_path.has "Obj" comps then
      add "banned-construct" loc "Obj.magic is forbidden";
    if String.starts_with ~prefix:"unsafe_" last && Sema_path.has "Bytes" comps && not unsafe_allowed
    then add "banned-construct" loc (Printf.sprintf "Bytes.%s outside lib/util/byte_arena.ml" last);
    if Sema_path.banned_determinism comps && not clock_allowed then
      add "sema-determinism" loc
        (Printf.sprintf
           "nondeterministic '%s' breaks the simulated clock and the crash-point oracle; use \
            Ipl_util.Clock or a seeded source"
           (Sema_path.key comps))
  in
  (* A dropped value is unchecked when it is a result or the return of a
     chip operation (read_sectors returns bytes, not a result). *)
  let dropped loc how (e : expression) =
    if Sema_path.is_result_type u.env e.exp_type then
      add "sema-unchecked-result" loc
        (Printf.sprintf "result value %s; match it or propagate it" how)
    else
      match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
        when Sema_path.is_flash_op Sema_config.flash_ops (canon p) ->
          add "sema-unchecked-result" loc
            (Printf.sprintf "result of Flash_chip.%s %s; bind and check it"
               (Sema_path.last (canon p)) how)
      | _ -> ()
  in
  let binding (vb : value_binding) =
    match vb.vb_pat.pat_desc with
    | Tpat_any -> dropped vb.vb_loc "dropped with 'let _'" vb.vb_expr
    | _ -> ()
  in
  let swallow (c : value case) =
    match (c.c_guard, catch_all c.c_lhs) with
    | None, Some bound
      when Option.fold ~none:true ~some:(fun id -> not (mentions id c.c_rhs)) bound ->
        add "no-silent-swallow" c.c_lhs.pat_loc
          "catch-all exception handler discards the exception; narrow it or report via Logs.warn"
    | _ -> ()
  in
  let apply (e : expression) comps args =
    let arg_exprs = List.filter_map snd args in
    if Sema_path.is_ignore comps then
      List.iter (fun (a : expression) -> dropped a.exp_loc "swallowed by ignore" a) arg_exprs;
    (match comps with
    | [ "Stdlib"; ("=" | "<>" | "compare") ]
      when List.exists (fun (a : expression) -> is_bytes a.exp_type) arg_exprs ->
        add "banned-construct" e.exp_loc
          "polymorphic compare on a Bytes value; use Bytes.equal / Bytes.compare"
    | _ -> ());
    if Sema_path.last comps = "create" && Sema_path.has "Hashtbl" comps && passes_random args then
      add "sema-determinism" e.exp_loc
        "randomized Hashtbl iteration order is nondeterministic; drop ~random"
  in
  let expr (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, lid, _) -> ident lid.loc p
    | Texp_constant (Asttypes.Const_int n)
      when List.mem n Sema_config.geometry_literals && not geometry_allowed ->
        add "no-magic-geometry" e.exp_loc
          (Printf.sprintf
             "raw geometry literal %d; derive it from Flash_config/Ipl_config/Disk_config" n)
    | Texp_construct (lid, cd, _) -> constructor lid.loc cd
    | Texp_field (_, lid, ld) | Texp_setfield (_, lid, ld, _) ->
        type_reference lid.loc ld.lbl_res
    | Texp_record _ -> type_reference e.exp_loc e.exp_type
    | Texp_let (_, vbs, _) -> List.iter binding vbs
    | Texp_try (_, cases) -> List.iter swallow cases
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> apply e (canon p) args
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun self e ->
          expr e;
          default.expr self e);
      pat =
        (fun (type k) self (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_construct (lid, cd, _, _) -> constructor lid.loc cd
          | Tpat_record _ -> type_reference p.pat_loc p.pat_type
          | _ -> ());
          default.pat self p);
      typ =
        (fun self t ->
          (match t.ctyp_desc with
          | Ttyp_constr (p, lid, _) | Ttyp_class (p, lid, _) -> reference lid.loc p
          | _ -> ());
          default.typ self t);
      module_expr =
        (fun self m ->
          (match m.mod_desc with Tmod_ident (p, lid) -> reference lid.loc p | _ -> ());
          default.module_expr self m);
      module_type =
        (fun self m ->
          (match m.mty_desc with
          | Tmty_ident (p, lid) | Tmty_alias (p, lid) -> reference lid.loc p
          | _ -> ());
          default.module_type self m);
      structure_item =
        (fun self item ->
          (match item.str_desc with Tstr_value (_, vbs) -> List.iter binding vbs | _ -> ());
          default.structure_item self item);
    }
  in
  if in_lib && layer = None then
    add_at "layering" 1
      (Printf.sprintf
         "library directory %s is not registered in the layering table (Sema_config.libraries)"
         u.dir);
  it.structure it u.structure;
  (match u.signature with
  | Some sg ->
      file := Sema_cmt.interface_source u;
      it.signature it sg
  | None ->
      if in_lib then add_at "mli-coverage" 1 (Printf.sprintf "missing interface %si" u.source));
  List.rev !findings

(* ---- sema-exception-escape ---- *)

let exception_escape units (table : Summary.table) =
  (* Public surface of a unit: the vals of its interface, or every
     toplevel binding when there is none. *)
  let publics = Hashtbl.create 16 in
  List.iter
    (fun (u : Sema_cmt.unit_info) ->
      Option.iter
        (fun (sg : signature) ->
          Hashtbl.replace publics u.source
            (List.filter_map
               (fun item ->
                 match item.sig_desc with Tsig_value vd -> Some vd.val_name.txt | _ -> None)
               sg.sig_items))
        u.signature)
    units;
  let is_public (s : Summary.t) =
    match Hashtbl.find_opt publics s.file with
    | Some names -> s.toplevel && List.mem s.public_name names
    | None -> true
  in
  let keys =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])
  in
  List.filter_map
    (fun k ->
      let s = Hashtbl.find table k in
      if SSet.is_empty s.raises || not (is_public s) then None
      else
        let exns = String.concat ", " (SSet.elements s.raises) in
        let mk msg =
          Some (Sema_finding.make ~rule:"sema-exception-escape" ~file:s.file ~line:s.line msg)
        in
        if List.mem s.dir Sema_config.exn_escape_dirs then
          mk
            (Printf.sprintf
               "public '%s' can leak device exception(s) %s across the engine boundary; handle \
                them or use the *_result engine API"
               s.public_name exns)
        else if s.returns_engine_result then
          mk
            (Printf.sprintf
               "'%s' returns a typed-error result but can still raise %s; faults must surface \
                as Error"
               s.public_name exns)
        else None)
    keys
