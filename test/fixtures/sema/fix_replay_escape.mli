val rebuild : int -> unit
val rebuild_result : int -> (unit, int) result
