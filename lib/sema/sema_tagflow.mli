(** Tag-leak rule: every [Flash_device.submit_write]/[submit_erase]
    completion tag must, on every path, be awaited, covered by a
    barrier/drain (directly or through a transitively-barriering callee),
    or escape to a context that takes over the obligation. Dropped tags
    ([let _], [ignore]) are always findings — the sanctioned
    fire-and-forget spelling is [publish_write]/[publish_erase]. *)

val check : Sema_summary.table -> Sema_cmt.unit_info -> Sema_finding.t list
