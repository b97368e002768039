module Y = Yancfs

type t = { yfs : Y.Yanc_fs.t; cred : Vfs.Cred.t }

let create ?(cred = Vfs.Cred.root) yfs = { yfs; cred }

(* One crossing for the whole thunk: [suspended] freezes the shared
   counter around the work inside. *)
let one_crossing t f =
  let fs = Y.Yanc_fs.fs t.yfs in
  Vfs.Fs.syscall fs;
  Vfs.Fs.suspended fs f

let create_flow t ~switch ~name flow =
  one_crossing t (fun () ->
      Y.Yanc_fs.create_flow t.yfs ~cred:t.cred ~switch ~name flow)

let push_flows t triples =
  one_crossing t (fun () ->
      List.fold_left
        (fun acc (switch, name, flow) ->
          match acc with
          | Error _ as e -> e
          | Ok n -> (
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
      Ok
        (List.filter_map
           (fun flow ->
             Option.map
               (fun (p, b) -> flow, p, b)
               (Y.Flowdir.read_counters ~flow fs ~cred:t.cred d))
           flows))
