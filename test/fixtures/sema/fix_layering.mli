(* The interface is checked too. *)

val config : Ipl_core.Ipl_config.t
val chip : unit -> Flash_sim.Flash_chip.t
val sibling : unit -> unit
