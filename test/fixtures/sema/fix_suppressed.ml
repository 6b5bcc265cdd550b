(* The same violation twice: once suppressed with [@@lint.allow], once
   live. Only the live one may surface. *)

let dev : Flash_device.t = ()

let quiet () =
  ignore (Flash_device.submit_write dev ~cls:Flash_device.Foreground ~sector:0 (Bytes.create 1))
[@@lint.allow "sema-tag-leak"]

(* FINDING: identical shape, no allow attribute. *)
let loud () =
  ignore (Flash_device.submit_write dev ~cls:Flash_device.Foreground ~sector:1 (Bytes.create 1))
