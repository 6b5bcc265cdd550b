type t =
  | Read_sector of { sector : int; count : int }
  | Program_sector of { sector : int; count : int }
  | Erase_block of { block : int }
  | Page_alloc of { page : int; eu : int }
  | Page_read of { page : int; eu : int }
  | Log_flush of { page : int; eu : int; records : int }
  | Overflow_diversion of { page : int; eu : int; records : int }
  | Merge of {
      eu : int;
      new_eu : int;
      partner : int;
      moved : int;
      applied : int;
      carried : int;
      dropped : int;
    }
  | Cache_hit of { eu : int }
  | Cache_miss of { eu : int }
  | Cache_evict of { eu : int; bytes : int }
  | Evict of { page : int }
  | Write_back of { page : int }
  | Commit of { tx : int }
  | Abort of { tx : int }
  | Checkpoint
  | Read_retry of { sector : int; attempt : int }
  | Remap of { virt : int; from_phys : int; to_phys : int }
  | Retire of { block : int }
  | Scrub of { virt : int; to_phys : int }
  | Degraded

let kind = function
  | Read_sector _ -> "read_sector"
  | Program_sector _ -> "program_sector"
  | Erase_block _ -> "erase_block"
  | Page_alloc _ -> "page_alloc"
  | Page_read _ -> "page_read"
  | Log_flush _ -> "log_flush"
  | Overflow_diversion _ -> "overflow_diversion"
  | Merge _ -> "merge"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Cache_evict _ -> "cache_evict"
  | Evict _ -> "evict"
  | Write_back _ -> "write_back"
  | Commit _ -> "commit"
  | Abort _ -> "abort"
  | Checkpoint -> "checkpoint"
  | Read_retry _ -> "read_retry"
  | Remap _ -> "remap"
  | Retire _ -> "retire"
  | Scrub _ -> "scrub"
  | Degraded -> "degraded"

(* Every kind tag, in declaration order — the stable key order for
   aggregated per-kind reports. *)
let kinds =
  [
    "read_sector";
    "program_sector";
    "erase_block";
    "page_alloc";
    "page_read";
    "log_flush";
    "overflow_diversion";
    "merge";
    "cache_hit";
    "cache_miss";
    "cache_evict";
    "evict";
    "write_back";
    "commit";
    "abort";
    "checkpoint";
    "read_retry";
    "remap";
    "retire";
    "scrub";
    "degraded";
  ]

(* Payload as ordered (field, value) pairs — single source for JSON, CSV
   and pretty-printing. *)
let fields = function
  | Read_sector { sector; count } | Program_sector { sector; count } ->
      [ ("sector", sector); ("count", count) ]
  | Erase_block { block } -> [ ("block", block) ]
  | Page_alloc { page; eu } | Page_read { page; eu } -> [ ("page", page); ("eu", eu) ]
  | Log_flush { page; eu; records } | Overflow_diversion { page; eu; records } ->
      [ ("page", page); ("eu", eu); ("records", records) ]
  | Merge { eu; new_eu; partner; moved; applied; carried; dropped } ->
      [
        ("eu", eu);
        ("new_eu", new_eu);
        ("partner", partner);
        ("moved", moved);
        ("applied", applied);
        ("carried", carried);
        ("dropped", dropped);
      ]
  | Cache_hit { eu } | Cache_miss { eu } -> [ ("eu", eu) ]
  | Cache_evict { eu; bytes } -> [ ("eu", eu); ("bytes", bytes) ]
  | Evict { page } | Write_back { page } -> [ ("page", page) ]
  | Commit { tx } | Abort { tx } -> [ ("tx", tx) ]
  | Checkpoint -> []
  | Read_retry { sector; attempt } -> [ ("sector", sector); ("attempt", attempt) ]
  | Remap { virt; from_phys; to_phys } ->
      [ ("virt", virt); ("from_phys", from_phys); ("to_phys", to_phys) ]
  | Retire { block } -> [ ("block", block) ]
  | Scrub { virt; to_phys } -> [ ("virt", virt); ("to_phys", to_phys) ]
  | Degraded -> []

let to_json ev =
  Ipl_util.Json.Obj
    (("kind", Ipl_util.Json.String (kind ev))
    :: List.map (fun (k, v) -> (k, Ipl_util.Json.Int v)) (fields ev))

let pp ppf ev =
  Format.pp_print_string ppf (kind ev);
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) (fields ev)
