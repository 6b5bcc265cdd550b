type t = { rule : string; file : string; line : int; message : string }

let make ~rule ~file ~line message = { rule; file; line; message }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> ( match Int.compare a.line b.line with 0 -> String.compare a.rule b.rule | c -> c)
  | c -> c

let dedup findings =
  (* Deterministic order (path, line, rule, then message), then one finding
     per (file, line, rule) so repeated detections cannot wobble CI diffs. *)
  let sorted =
    List.sort
      (fun a b ->
        match compare a b with 0 -> String.compare a.message b.message | c -> c)
      findings
  in
  let rec uniq = function
    | a :: b :: rest when compare a b = 0 -> uniq (a :: rest)
    | a :: rest -> a :: uniq rest
    | [] -> []
  in
  uniq sorted

let pp ppf t = Format.fprintf ppf "%s:%d %s %s [error]" t.file t.line t.rule t.message

let print_report ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp f) (List.sort compare findings);
  if findings = [] then Format.fprintf ppf "ipl_sema: no findings@."
  else Format.fprintf ppf "ipl_sema: %d error(s)@." (List.length findings)

(* Hand-rolled JSON: the analyser depends on compiler-libs only, so no
   Ipl_util.Json. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json_string findings =
  let findings = dedup findings in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"ipl-findings/1\",\"tool\":\"ipl_sema\",\"errors\":%d,\"warnings\":0,\"findings\":["
       (List.length findings));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n  {\"rule\":\"%s\",\"severity\":\"error\",\"file\":\"%s\",\"line\":%d,\"message\":\"%s\"}"
           (json_escape f.rule) (json_escape f.file) f.line (json_escape f.message)))
    findings;
  if findings <> [] then Buffer.add_char buf '\n';
  Buffer.add_string buf "]}";
  Buffer.contents buf
