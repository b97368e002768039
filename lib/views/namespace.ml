module Y = Yancfs
module Fs = Vfs.Fs

let ( let* ) = Result.bind

let provision master ~view ~owner =
  let* vyfs = Y.Yanc_fs.in_view master ~cred:Vfs.Cred.root view in
  let fs = Y.Yanc_fs.fs master in
  let vroot = Y.Yanc_fs.root vyfs in
  (* A symlink the owner left in the view is not followed out of it. *)
  let cred = Vfs.Cred.beneath Vfs.Cred.root vroot in
  let fs_errors = Apps.App_intf.fs_errors master in
  let* () =
    Fs.fold fs ~cred vroot ~init:() (fun () path _ ->
        Apps.App_intf.checked fs_errors ("namespace-" ^ view)
          (Vfs.Path.to_string path)
          (Fs.chown fs ~cred path ~uid:owner.Vfs.Cred.uid ~gid:owner.Vfs.Cred.gid);
        ((), `Continue))
  in
  let* () = Fs.chmod fs ~cred vroot 0o700 in
  Ok vyfs

let enter master ~cred ~view =
  let fs = Y.Yanc_fs.fs master in
  let vroot = Y.Layout.view ~root:(Y.Yanc_fs.root master) view in
  let* () = Fs.access fs ~cred vroot Vfs.Perm.x_ok in
  Y.Yanc_fs.in_view master ~cred view
