module Y = Yancfs
module Fs = Vfs.Fs

type usage = { switch : string; packets : int64; bytes : int64; flows : int }

(* Counter collection runs every period over every flow of every switch
   — exactly the workload the libyanc fastpath exists for, so read the
   sums through it: one crossing per switch instead of two reads per
   flow. *)
let collect yfs ~cred =
  let fp = Libyanc.Fastpath.create ~cred yfs in
  List.map
    (fun switch ->
      let flows = Y.Yanc_fs.flow_names yfs ~cred switch in
      let packets, bytes =
        match Libyanc.Fastpath.read_flow_counters fp ~switch with
        | Error _ -> 0L, 0L
        | Ok rows ->
          List.fold_left
            (fun (p, b) (_, dp, db) -> Int64.add p dp, Int64.add b db)
            (0L, 0L) rows
      in
      { switch; packets; bytes; flows = List.length flows })
    (Y.Yanc_fs.switch_names yfs)

let run_to_dir yfs ~cred ~dir ~now =
  let fs = Y.Yanc_fs.fs yfs in
  let ( let* ) = Result.bind in
  let* () = Fs.mkdir_p fs ~cred dir in
  List.fold_left
    (fun acc u ->
      let* () = acc in
      let line =
        Printf.sprintf "%.3f,%Ld,%Ld,%d\n" now u.packets u.bytes u.flows
      in
      Fs.append_file fs ~cred (Vfs.Path.child dir (u.switch ^ ".csv")) line)
    (Ok ()) (collect yfs ~cred)

let app yfs ~cred ~dir ~period =
  let fs_errors = App_intf.fs_errors yfs in
  App_intf.cron ~name:"accounting" ~period (fun ~now ->
      App_intf.checked fs_errors "accounting" (Vfs.Path.to_string dir)
        (run_to_dir yfs ~cred ~dir ~now))
