(* Record operations: each changes its frame's page and logs the change
   in the frame, choosing how an update is logged. *)
open Engine_state
module Page = Storage.Page
module Pool = Bufmgr.Buffer_pool

let note_dirty t ~tx ~page =
  if tx <> 0 then Hashtbl.replace (txn_info t tx).dirty_pages page ()

let mutate t ~tx ~page f =
  Pool.with_page t.pool page ~dirty:true (fun frame ->
      match f frame.page with
      | Ok record ->
          Engine_frames.add_record t frame ~page record;
          note_dirty t ~tx ~page;
          Ok ()
      | Error _ as e -> e)

(* Largest record payload the logging path accepts: one record must fit an
   empty in-memory log sector. *)
let max_record_payload t = sector_size t - Log_sector.header_size - 13

let insert t ~tx ~page data =
  Pool.with_page t.pool page ~dirty:true (fun frame ->
      match Page.insert frame.page data with
      | None -> Error Page_full
      | Some slot ->
          Engine_frames.add_record t frame ~page
            { Log_record.txid = tx; page; op = Log_record.Insert { slot; record = data } };
          note_dirty t ~tx ~page;
          Ok slot)

let delete t ~tx ~page ~slot =
  mutate t ~tx ~page (fun p ->
      match Page.read p slot with
      | None -> Error No_such_slot
      | Some before -> (
          match Page.delete p slot with
          | Error `Slot_not_live -> Error No_such_slot
          | Ok () ->
              Ok { Log_record.txid = tx; page; op = Log_record.Delete { slot; before } }))

(* Equal-length updates are logged as byte-range deltas: one record per
   differing range (nearby ranges coalesced), each chunked so it fits a
   log sector. *)
let update_range_records t ~tx ~page ~slot ~before ~data =
  let chunk = (max_record_payload t - 15) / 2 in
  List.concat_map
    (fun (off, len) ->
      let rec split off len acc =
        if len <= 0 then List.rev acc
        else
          let n = min len chunk in
          let r =
            {
              Log_record.txid = tx;
              page;
              op =
                Log_record.Update_range
                  {
                    slot;
                    offset = off;
                    before = Bytes.sub before off n;
                    after = Bytes.sub data off n;
                  };
            }
          in
          split (off + n) (len - n) (r :: acc)
      in
      split off len [])
    (Ipl_util.Diff.ranges before data)

let update t ~tx ~page ~slot data =
  Pool.with_page t.pool page (fun frame ->
      match Page.read frame.page slot with
      | None -> Error No_such_slot
      | Some before ->
          if Bytes.length before = Bytes.length data then begin
            match update_range_records t ~tx ~page ~slot ~before ~data with
            | [] -> Ok () (* no change: nothing to apply or log *)
            | records ->
                (* Log before applying: [add_record] never touches the page,
                   so if the log sector's flush fails mid-way the page image
                   covers exactly the records logged so far and nothing
                   half-applied. *)
                List.iter
                  (fun r ->
                    Engine_frames.add_record t frame ~page r;
                    Log_record.replay frame.page [ r ])
                  records;
                Pool.mark_dirty t.pool page;
                note_dirty t ~tx ~page;
                Ok ()
          end
          else if Bytes.length data > max_record_payload t then Error Record_too_large
          else if Bytes.length data = 0 then Error Bad_record_length
          else begin
            (* Size-changing replacement. When the combined before/after
               image fits one record, log Update_full; otherwise log it as
               a delete + insert pair (same replay semantics). The frame
               takes the change as a replay of those records does, so its
               bytes stay the stored image's plus its log: a shrinking
               pair re-appends the record, where [Page.update] would
               overwrite it in place, and cannot fail (the deleted copy
               makes room); a growing record is relocated either way. *)
            let one_record =
              15 + Bytes.length before + Bytes.length data <= max_record_payload t + 13
            in
            let records =
              if one_record then [ Log_record.Update_full { slot; before; after = data } ]
              else [ Log_record.Delete { slot; before }; Log_record.Insert { slot; record = data } ]
            in
            let changed =
              if (not one_record) && Bytes.length data < Bytes.length before then
                match Page.delete frame.page slot with
                | Error `Slot_not_live -> Error `Slot_not_live
                | Ok () -> (
                    match Page.insert_at frame.page slot data with
                    | Ok () -> Ok ()
                    | Error (`Bad_record_length | `Negative_slot | `Slot_already_live | `Page_full)
                      ->
                        (* the record is not empty, and the slot was live a
                           moment ago with a longer copy *)
                        assert false)
              else Page.update frame.page slot data
            in
            match changed with
            | Error `Bad_record_length -> Error Bad_record_length
            | Error `Slot_not_live -> Error No_such_slot
            | Error `Page_full -> Error Page_full
            | Ok () ->
                List.iter
                  (fun op -> Engine_frames.add_record t frame ~page { Log_record.txid = tx; page; op })
                  records;
                Pool.mark_dirty t.pool page;
                note_dirty t ~tx ~page;
                Ok ()
          end)

let update_range t ~tx ~page ~slot ~offset data =
  mutate t ~tx ~page (fun p ->
      match Page.read p slot with
      | None -> Error No_such_slot
      | Some record ->
          let len = Bytes.length data in
          if offset < 0 || offset + len > Bytes.length record then Error Range_out_of_bounds
          else if (2 * len) + 15 > max_record_payload t + 13 then Error Range_too_large
          else begin
            let before = Bytes.sub record offset len in
            match Page.update_bytes p ~slot ~offset data with
            | Error `Slot_not_live -> Error No_such_slot
            | Error `Range_outside_record -> Error Range_out_of_bounds
            | Ok () ->
                Ok
                  {
                    Log_record.txid = tx;
                    page;
                    op = Log_record.Update_range { slot; offset; before; after = data };
                  }
          end)
