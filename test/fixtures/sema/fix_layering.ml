(* Cross-library references; test_sema relabels this unit into different
   directories to check the layering diagram. *)

let config = Ipl_core.Ipl_config.default
let chip () = Flash_sim.Flash_chip.create (Flash_sim.Flash_config.default ())
let sibling () = Workload.step ()
