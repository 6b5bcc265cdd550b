(* Canonicalization of Typedtree paths into plain component lists.

   Dune-wrapped libraries mangle unit names ("Ipl_core__Ipl_engine"), the
   generated alias module shows up as a "Lib__" head under `-open`, and the
   repo idiom binds local aliases (`module Dev = Device.Flash_device`), so
   the same function is referenced under several spellings. We flatten every
   Path.t to components, expand the head through the per-unit alias
   environment, and split "__"-mangled heads, so `Dev.submit_write`,
   `Device.Flash_device.submit_write` and a Pident inside flash_device.ml
   all canonicalize to lists the matchers and the summary table agree on. *)

type env = {
  unit_prefix : string list;  (* e.g. ["Ipl_core"; "Ipl_engine"] *)
  aliases : (string, string list) Hashtbl.t;  (* local module aliases *)
}

let split_unit_name name =
  (* "Ipl_core__Ipl_engine" -> ["Ipl_core"; "Ipl_engine"]; "Ipl_core__" ->
     ["Ipl_core"]. *)
  let n = String.length name in
  let rec go acc seg_start j =
    if j >= n - 1 then
      let seg = String.sub name seg_start (n - seg_start) in
      List.rev (if seg = "" then acc else seg :: acc)
    else if name.[j] = '_' && name.[j + 1] = '_' then
      let seg = String.sub name seg_start (j - seg_start) in
      go (if seg = "" then acc else seg :: acc) (j + 2) (j + 2)
    else go acc seg_start (j + 1)
  in
  match go [] 0 0 with [] -> [ name ] | comps -> comps

let fresh_env unit_prefix = { unit_prefix; aliases = Hashtbl.create 16 }

let add_alias env name target = Hashtbl.replace env.aliases name target

(* Head ident of a path plus the trailing labels. *)
let rec split_path = function
  | Path.Pident id -> (id, [])
  | Path.Pdot (p, s) ->
      let id, rest = split_path p in
      (id, rest @ [ s ])
  | Path.Papply (p, _) -> split_path p
  | Path.Pextra_ty (p, _) -> split_path p

let canon env path =
  let id, rest = split_path path in
  let name = Ident.name id in
  match Hashtbl.find_opt env.aliases name with
  | Some target -> target @ rest
  | None ->
      if Ident.global id then split_unit_name name @ rest
      else env.unit_prefix @ (name :: rest)

let key comps = String.concat "." comps
let has comp comps = List.mem comp comps

let last comps =
  match List.rev comps with [] -> "" | l :: _ -> l

(* ---- matchers over canonical components ---- *)

let is_submit comps =
  has "Flash_device" comps && List.mem (last comps) Sema_config.submit_fns

let is_await comps = has "Flash_device" comps && last comps = "await"

let is_barrier comps =
  has "Flash_device" comps && (last comps = "barrier" || last comps = "drain")

let is_raise comps =
  match comps with
  | [ "Stdlib"; ("raise" | "raise_notrace") ] -> true
  | [ ("raise" | "raise_notrace") ] -> true
  | _ -> false

let is_ignore comps =
  match comps with [ "Stdlib"; "ignore" ] | [ "ignore" ] -> true | _ -> false

(* [f @@ x] and [x |> f] are re-associated before analysis so the real
   callee's catch set applies to its lambda arguments. *)
let is_apply_op comps =
  match comps with [ "Stdlib"; "@@" ] | [ "@@" ] -> true | _ -> false

let is_pipe_op comps =
  match comps with [ "Stdlib"; "|>" ] | [ "|>" ] -> true | _ -> false

let is_flash_op ops comps =
  List.mem (last comps) ops
  && List.exists (fun m -> has m comps) Sema_config.chip_module_names

let banned_determinism comps =
  List.exists
    (fun (m, f) -> last comps = f && has m comps)
    Sema_config.banned_idents

let exn_key comps =
  let l = last comps in
  List.fold_left
    (fun acc (m, cs) ->
      match acc with
      | Some _ -> acc
      | None -> if has m comps && List.mem l cs then Some (m ^ "." ^ l) else None)
    None Sema_config.contract_exceptions

(* ---- type matchers ---- *)

let rec type_path ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some p
  | Types.Tpoly (ty, _) -> type_path ty
  | _ -> None

let is_tag_type env ty =
  match type_path ty with
  | Some p ->
      let comps = canon env p in
      has "Flash_device" comps && last comps = "tag"
  | None -> false

let result_comps comps =
  match (comps, last comps) with
  | [ "result" ], _ | [ "Stdlib"; "result" ], _ -> true
  | _, "t" -> has "Result" comps
  | _ -> false

let is_result_type env ty =
  match type_path ty with
  | Some p -> result_comps (canon env p)
  | None -> false

let is_engine_result_type env ty =
  (* (_, Ipl_engine.error) result *)
  match Types.get_desc ty with
  | Types.Tconstr (p, [ _; err ], _) when result_comps (canon env p) -> (
      match type_path err with
      | Some ep ->
          let comps = canon env ep in
          has "Ipl_engine" comps && last comps = "error"
      | None -> false)
  | _ -> false
