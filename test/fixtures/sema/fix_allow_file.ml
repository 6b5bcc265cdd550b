[@@@lint.allow "no-magic-geometry"]

(* A floating [@@@lint.allow] covers the whole file. *)
let a = 8192
let b = 131072
