(* A sibling named like the workload library: inside this library
   [Workload] resolves here, so using it is no cross-library edge. *)

let step () = ()
