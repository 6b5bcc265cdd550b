(* Discovery and loading of dune-emitted .cmt/.cmti files.

   Dune compiles library modules under <dir>/.<lib>.objs/byte/ and
   executable modules under <dir>/.<exe>.eobjs/byte/, inside the build
   context (_build/default by default). We walk the build context below the
   requested roots, load every implementation cmt with the cmti beside it,
   and map it back to its repo-relative source file; generated units (the
   "Lib__" alias module, .ml-gen files) have no source and are skipped.
   Executables get their cmts from the @check alias only, not from
   @default. *)

type unit_info = {
  source : string;  (* repo-relative, e.g. "lib/core/ipl_engine.ml" *)
  dir : string;  (* "lib/core" *)
  unit_prefix : string list;  (* ["Ipl_core"; "Ipl_engine"] *)
  env : Sema_path.env;
  structure : Typedtree.structure;
  signature : Typedtree.signature option;
}

let default_build_root () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default" then
    "_build/default"
  else "."

let rec find_cmts acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then find_cmts acc path
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries

(* The directory part of the cmt path up to the objs directory is the
   source directory: "lib/core/.ipl_core.objs/byte/x.cmt" -> "lib/core". *)
let source_dir_of_rel rel =
  let comps = String.split_on_char '/' rel in
  let rec take acc = function
    | [] -> None
    | c :: _
      when String.length c > 1
           && c.[0] = '.'
           && (Filename.check_suffix c ".objs" || Filename.check_suffix c ".eobjs") ->
        Some (List.rev acc)
    | c :: rest -> take (c :: acc) rest
  in
  take [] comps

(* Local module aliases (module Dev = Device.Flash_device) at the top of
   the structure feed the canonicalization environment. *)
let collect_aliases env (str : Typedtree.structure) =
  let rec target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some (Sema_path.canon env p)
    | Typedtree.Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_module mb -> (
          match (mb.mb_name.txt, target mb.mb_expr) with
          | Some name, Some t -> Sema_path.add_alias env name t
          | _ -> ())
      | _ -> ())
    str.str_items

let strip_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s > lp && String.sub s 0 lp = prefix then
    let rest = String.sub s lp (String.length s - lp) in
    if rest.[0] = '/' then String.sub rest 1 (String.length rest - 1) else rest
  else s

let load_one ~build_root ~source_root cmt_path =
  let rel = strip_prefix ~prefix:build_root cmt_path in
  match source_dir_of_rel rel with
  | None -> None
  | Some dir_comps -> (
      let infos = Cmt_format.read_cmt cmt_path in
      match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation structure, Some src
        when Filename.check_suffix src ".ml" ->
          let dir = String.concat "/" dir_comps in
          let source =
            if dir = "" then Filename.basename src
            else dir ^ "/" ^ Filename.basename src
          in
          if not (Sys.file_exists (Filename.concat source_root source)) then None
          else
            let unit_prefix =
              Sema_path.split_unit_name infos.Cmt_format.cmt_modname
            in
            let env = Sema_path.fresh_env unit_prefix in
            collect_aliases env structure;
            let signature =
              match (Cmt_format.read_cmt (cmt_path ^ "i")).Cmt_format.cmt_annots with
              | Cmt_format.Interface sg -> Some sg
              | _ -> None
              | exception Sys_error _ -> None
            in
            Some { source; dir; unit_prefix; env; structure; signature }
      | _ -> None)

let load ~build_root ~source_root roots =
  let cmts =
    List.concat_map
      (fun root -> find_cmts [] (Filename.concat build_root root))
      roots
  in
  let units = List.filter_map (load_one ~build_root ~source_root) cmts in
  let units =
    List.sort_uniq (fun a b -> String.compare a.source b.source) units
  in
  units

let interface_source u = Filename.remove_extension u.source ^ ".mli"
