module Y = Yancfs

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  mutable saved : int;
}

let create ?(cred = Vfs.Cred.root) yfs = { yfs; cred; saved = 0 }

(* One crossing for the whole thunk. [suspended] freezes the shared
   counter, so the specific helpers below account their own savings
   explicitly. *)
let one_crossing t f =
  let fs = Y.Yanc_fs.fs t.yfs in
  Vfs.Fs.syscall fs;
  Vfs.Fs.suspended fs f

let batch t f = one_crossing t (fun () -> f t.yfs)

let create_flow t ~switch ~name flow =
  one_crossing t (fun () ->
      (* Slow path: mkdir + one write per field file + version. *)
      let field_count =
        2 (* mkdir + version *)
        + List.length (Openflow.Of_match.to_fields flow.Y.Flowdir.of_match)
        + List.length flow.actions + 4 (* priority/timeouts/cookie *)
      in
      t.saved <- t.saved + field_count - 1;
      Y.Yanc_fs.create_flow t.yfs ~cred:t.cred ~switch ~name flow)

let push_flows t triples =
  one_crossing t (fun () ->
      List.fold_left
        (fun acc (switch, name, flow) ->
          match acc with
          | Error _ as e -> e
          | Ok n -> (
            let per_flow =
              2
              + List.length (Openflow.Of_match.to_fields flow.Y.Flowdir.of_match)
              + List.length flow.Y.Flowdir.actions
              + 4
            in
            t.saved <- t.saved + per_flow;
            match
              Y.Yanc_fs.create_flow t.yfs ~cred:t.cred ~switch ~name flow
            with
            | Ok () -> Ok (n + 1)
            | Error Vfs.Errno.EEXIST -> Ok n
            | Error _ as e -> e))
        (Ok 0) triples)

let delete_flows t pairs =
  one_crossing t (fun () ->
      List.fold_left
        (fun acc (switch, name) ->
          match acc with
          | Error _ as e -> e
          | Ok () -> (
            t.saved <- t.saved + 1;
            match Y.Yanc_fs.delete_flow t.yfs ~cred:t.cred ~switch name with
            | Ok () | Error Vfs.Errno.ENOENT -> Ok ()
            | Error _ as e -> e))
        (Ok ()) pairs)

let read_flow_counters t ~switch =
  one_crossing t (fun () ->
      let fs = Y.Yanc_fs.fs t.yfs in
      let root = Y.Yanc_fs.root t.yfs in
      let ( let* ) = Result.bind in
      (* A missing or unreadable switch is an error, not an empty list —
         matching every sibling call here. Flows whose counter files are
         absent (the driver has not reported yet) are merely skipped. *)
      let* flows =
        Vfs.Fs.readdir fs ~cred:t.cred (Y.Layout.flows_dir ~root switch)
      in
      (* The slow path: open flows/ once, read two files per flow. *)
      let* d = Y.Yanc_fs.open_flows t.yfs ~cred:t.cred switch in
      t.saved <- t.saved + 1;
      Ok
        (List.filter_map
           (fun flow ->
             t.saved <- t.saved + 2;
             Option.map
               (fun (p, b) -> flow, p, b)
               (Y.Flowdir.read_counters ~flow fs ~cred:t.cred d))
           flows))

let crossings_saved t = t.saved
