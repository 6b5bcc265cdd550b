(* [@lint.allow] scoping on the ported rules. *)

let cap = 8192 [@lint.allow "no-magic-geometry"]

(* FINDING: a different rule id does not silence it. *)
let other = 8192 [@lint.allow "flash-call"]

(* A bare [@lint.allow] silences every rule on the node. *)
let f g = (try g () with _ -> ()) [@lint.allow]

(* FINDING: the suppression above does not leak to later lines. *)
let b = 8192
