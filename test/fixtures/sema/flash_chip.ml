(* Mock carrying the contract exceptions' names. *)

exception Read_error of int
exception Program_error of int
exception Erase_error of int
