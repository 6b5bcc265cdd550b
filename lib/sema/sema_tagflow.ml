(* Tag-leak rule: every Flash_device.submit_write / submit_erase completion
   tag must be settled on every path.

   A tag bound by `let t = Dev.submit_write ...` is settled when the
   continuation, on all control-flow paths, either awaits it, reaches a
   barrier/drain (directly or through a callee that transitively barriers),
   or lets it escape to a context we cannot see through (returned, stored
   in a structure, passed to an unknown function) — escape is optimistic:
   the obligation moves with the value. Passing the tag to a *known*
   function that neither settles nor barriers keeps the obligation here;
   that is what makes the summary table a cross-module analysis. Dropping
   the tag (`let _`, `ignore`) is always a finding: that is a write whose
   durability nobody can ever wait for — the sanctioned fire-and-forget
   spelling is Flash_device.publish_write/publish_erase, whose durability
   is the next class-covering barrier. *)

module Summary = Sema_summary

let finding ~file ~line msg = Sema_finding.make ~rule:"sema-tag-leak" ~file ~line msg

let head_comps env (fn : Typedtree.expression) =
  match fn.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some (Sema_path.canon env p)
  | _ -> None

let is_ident_expr id (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident i, _, _) -> Ident.same i id
  | _ -> false

(* Does the application expression [e] produce a fresh durability
   obligation? Either a direct submit_write/submit_erase, or a call into a
   known function that returns a tag without settling it. *)
let obligation_source table env (e : Typedtree.expression) =
  if not (Sema_path.is_tag_type env e.exp_type) then None
  else
    match e.exp_desc with
    | Typedtree.Texp_apply (fn, _) -> (
        match head_comps env fn with
        | Some comps when Sema_path.is_submit comps ->
            Some (Sema_path.last comps)
        | Some comps -> (
            match Hashtbl.find_opt table (Sema_path.key comps) with
            | Some (s : Summary.t)
              when s.returns_tag && (not s.settles) && not s.barriers ->
                Some s.public_name
            | _ -> None)
        | None -> None)
    | _ -> None

(* Is the tag bound to [id] settled on every path of [e]? *)
let rec settles table env id (e : Typedtree.expression) =
  let go = settles table env id in
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident i, _, _) when Ident.same i id ->
      true (* bare use: returned or stored — the obligation escapes *)
  | Typedtree.Texp_apply (fn, args) ->
      let arg_exprs = List.filter_map snd args in
      let comps = head_comps env fn in
      let barrier_here =
        match comps with
        | Some c -> (
            Sema_path.is_barrier c
            ||
            match Hashtbl.find_opt table (Sema_path.key c) with
            | Some (s : Summary.t) -> s.barriers
            | None -> false)
        | None -> false
      in
      let direct = List.exists (is_ident_expr id) arg_exprs in
      let settled_by_call =
        direct
        &&
        match comps with
        | Some c -> (
            Sema_path.is_await c
            ||
            match Hashtbl.find_opt table (Sema_path.key c) with
            | Some (s : Summary.t) -> s.settles || s.barriers
            | None -> true (* unknown callee: obligation escapes *))
        | None -> true (* computed function: cannot see through *)
      in
      let rest = fn :: List.filter (fun a -> not (is_ident_expr id a)) arg_exprs in
      barrier_here || settled_by_call || List.exists go rest
  | Typedtree.Texp_ifthenelse (c, t, Some e2) -> go c || (go t && go e2)
  | Typedtree.Texp_ifthenelse (c, _, None) ->
      go c (* a then-only settle is not guaranteed *)
  | Typedtree.Texp_match (scrut, cases, _) ->
      go scrut
      || cases <> []
         && List.for_all
              (fun (c : Typedtree.computation Typedtree.case) -> go c.c_rhs)
              cases
  | Typedtree.Texp_sequence (a, b) -> go a || go b
  | Typedtree.Texp_let (_, vbs, body) ->
      List.exists (fun (vb : Typedtree.value_binding) -> go vb.vb_expr) vbs
      || go body
  | Typedtree.Texp_try (b, cases) ->
      go b
      || List.exists
           (fun (c : Typedtree.value Typedtree.case) -> go c.c_rhs)
           cases
  | _ ->
      let found = ref false in
      Summary.iter_children (fun sub -> if go sub then found := true) e;
      !found

let var_name (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, name) -> Some (id, name.txt)
  | Typedtree.Tpat_alias (_, id, name) -> Some (id, name.txt)
  | _ -> None

let check table (u : Sema_cmt.unit_info) =
  if List.mem u.source Sema_config.tag_leak_exempt_files then []
  else
    let env = u.env in
    let findings = ref [] in
    let add line msg = findings := finding ~file:u.source ~line msg :: !findings in
    let line_of (e : Typedtree.expression) =
      e.exp_loc.Location.loc_start.Lexing.pos_lnum
    in
    let check_binding ?continuation (vb : Typedtree.value_binding) =
      match obligation_source table env vb.vb_expr with
      | None -> ()
      | Some origin -> (
          let line = vb.vb_loc.Location.loc_start.Lexing.pos_lnum in
          match vb.vb_pat.pat_desc with
          | Typedtree.Tpat_any ->
              add line
                (Printf.sprintf
                   "tag of %s is discarded with 'let _'; await it or use the \
                    publish_* fire-and-forget API"
                   origin)
          | _ -> (
              match (var_name vb.vb_pat, continuation) with
              | Some (id, name), Some cont ->
                  if not (settles table env id cont) then
                    add line
                      (Printf.sprintf
                         "tag '%s' of %s is not awaited, barriered or passed \
                          on along every path"
                         name origin)
              | _ -> () (* toplevel or destructured binding: escapes *)))
    in
    let visit_expr (e : Typedtree.expression) =
      match e.exp_desc with
      | Typedtree.Texp_let (_, vbs, body) ->
          List.iter (check_binding ~continuation:body) vbs
      | Typedtree.Texp_apply (fn, args) -> (
          match head_comps env fn with
          | Some c when Sema_path.is_ignore c ->
              List.iter
                (fun (_, a) ->
                  match a with
                  | Some (arg : Typedtree.expression)
                    when Sema_path.is_tag_type env arg.exp_type ->
                      add (line_of arg)
                        "tag passed to ignore; await it or use the publish_* \
                         fire-and-forget API"
                  | _ -> ())
                args
          | _ -> ())
      | _ -> ()
    in
    let visit_item (item : Typedtree.structure_item) =
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) -> List.iter check_binding vbs
      | _ -> ()
    in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        visit_item item;
        let it =
          {
            Tast_iterator.default_iterator with
            expr =
              (fun it e ->
                visit_expr e;
                Tast_iterator.default_iterator.expr it e);
          }
        in
        it.structure_item it item)
      u.structure.str_items;
    List.rev !findings
