(* Lookup-after-mutation tests for VFS path resolution: every lookup
   walks the tree, so a namespace or attribute change is visible to the
   very next lookup, and ops through symlinks report canonical paths. *)

module Fs = Vfs.Fs
module Path = Vfs.Path
module Cred = Vfs.Cred

let cred = Cred.root

let p = Path.of_string_exn

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Vfs.Errno.to_string e)

let check_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" what (Vfs.Errno.to_string expected)
  | Error e ->
    Alcotest.(check string) what (Vfs.Errno.to_string expected) (Vfs.Errno.to_string e)

let fresh () = Fs.create ()

(* --- lookup after mutation ------------------------------------------------- *)

(* Each path is looked up, the namespace or an attribute under it
   changes, and the next lookup must see the change: rename over a
   prefix and onto a destination, symlink retarget, recursive rmdir,
   chmod/chown/set_acl on traversal and access, replay on a replica and
   readonly flips. *)

let root = Cred.root

let alice = Cred.make ~uid:100 ~gid:100 ()

let test_rename_over_prefix () =
  let fs = fresh () in
  check_ok "mkdir" (Fs.mkdir_p fs ~cred:root (p "/a/b"));
  check_ok "write" (Fs.write_file fs ~cred:root (p "/a/b/f") "one");
  Alcotest.(check string) "looked up" "one"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/a/b/f")));
  check_ok "rename" (Fs.rename fs ~cred:root ~src:(p "/a") ~dst:(p "/z"));
  check_err "old prefix gone" Vfs.Errno.ENOENT
    (Fs.read_file fs ~cred:root (p "/a/b/f"));
  Alcotest.(check string) "new prefix live" "one"
    (check_ok "read moved" (Fs.read_file fs ~cred:root (p "/z/b/f")));
  (* and back: the ENOENT just returned for /a/b/f must not outlive
     the rename onto the destination *)
  check_ok "rename back" (Fs.rename fs ~cred:root ~src:(p "/z") ~dst:(p "/a"));
  Alcotest.(check string) "visible again after rename back" "one"
    (check_ok "read back" (Fs.read_file fs ~cred:root (p "/a/b/f")))

let test_rename_onto_destination () =
  let fs = fresh () in
  check_ok "mkdir" (Fs.mkdir fs ~cred:root (p "/d"));
  check_ok "write src" (Fs.write_file fs ~cred:root (p "/d/src") "S");
  check_ok "write dst" (Fs.write_file fs ~cred:root (p "/d/dst") "D");
  Alcotest.(check string) "dst looked up" "D"
    (check_ok "read dst" (Fs.read_file fs ~cred:root (p "/d/dst")));
  check_ok "rename" (Fs.rename fs ~cred:root ~src:(p "/d/src") ~dst:(p "/d/dst"));
  Alcotest.(check string) "replacement visible" "S"
    (check_ok "read dst again" (Fs.read_file fs ~cred:root (p "/d/dst")));
  check_err "src gone" Vfs.Errno.ENOENT (Fs.read_file fs ~cred:root (p "/d/src"))

let test_symlink_retarget () =
  let fs = fresh () in
  check_ok "mkdir t1" (Fs.mkdir fs ~cred:root (p "/t1"));
  check_ok "mkdir t2" (Fs.mkdir fs ~cred:root (p "/t2"));
  check_ok "write t1" (Fs.write_file fs ~cred:root (p "/t1/x") "one");
  check_ok "write t2" (Fs.write_file fs ~cred:root (p "/t2/x") "two");
  check_ok "link" (Fs.symlink fs ~cred:root ~target:"/t1" (p "/ln"));
  (* the retarget must not leave an alias to the old target behind *)
  Alcotest.(check string) "via link" "one"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/ln/x")));
  Alcotest.(check string) "via link again" "one"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/ln/x")));
  check_ok "unlink" (Fs.unlink fs ~cred:root (p "/ln"));
  check_ok "relink" (Fs.symlink fs ~cred:root ~target:"/t2" (p "/ln"));
  Alcotest.(check string) "retargeted" "two"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/ln/x")));
  (* the canonical path itself is untouched *)
  Alcotest.(check string) "canonical untouched" "one"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/t1/x")))

let test_rmdir_recursive () =
  let fs = fresh () in
  check_ok "mkdir" (Fs.mkdir_p fs ~cred:root (p "/top/sub"));
  check_ok "write" (Fs.write_file fs ~cred:root (p "/top/sub/f") "x");
  ignore (check_ok "look it up" (Fs.stat fs ~cred:root (p "/top/sub/f")));
  check_ok "rmdir -r" (Fs.rmdir ~recursive:true fs ~cred:root (p "/top"));
  check_err "deep path gone" Vfs.Errno.ENOENT
    (Fs.stat fs ~cred:root (p "/top/sub/f"));
  check_err "top gone" Vfs.Errno.ENOENT (Fs.stat fs ~cred:root (p "/top"))

let test_chmod_traversal () =
  let fs = fresh () in
  check_ok "mkdir" (Fs.mkdir fs ~cred:root (p "/priv"));
  check_ok "write" (Fs.write_file fs ~cred:root (p "/priv/f") "secret");
  check_ok "chmod f" (Fs.chmod fs ~cred:root (p "/priv/f") 0o644);
  Alcotest.(check string) "alice reads while open" "secret"
    (check_ok "read" (Fs.read_file fs ~cred:alice (p "/priv/f")));
  (* closing the x bit on the directory must deny traversal to
     everything below it *)
  check_ok "close dir" (Fs.chmod fs ~cred:root (p "/priv") 0o700);
  check_err "alice locked out" Vfs.Errno.EACCES
    (Fs.read_file fs ~cred:alice (p "/priv/f"));
  check_ok "reopen dir" (Fs.chmod fs ~cred:root (p "/priv") 0o755);
  Alcotest.(check string) "alice back in" "secret"
    (check_ok "read" (Fs.read_file fs ~cred:alice (p "/priv/f")))

let test_chown_access () =
  let fs = fresh () in
  check_ok "write" (Fs.write_file fs ~cred:root (p "/f") "x");
  check_ok "chmod" (Fs.chmod fs ~cred:root (p "/f") 0o600);
  check_err "alice denied" Vfs.Errno.EACCES
    (Fs.read_file fs ~cred:alice (p "/f"));
  check_ok "chown to alice" (Fs.chown fs ~cred:root (p "/f") ~uid:100 ~gid:100);
  Alcotest.(check string) "alice owns it now" "x"
    (check_ok "read" (Fs.read_file fs ~cred:alice (p "/f")))

let test_set_acl_access () =
  let fs = fresh () in
  check_ok "write" (Fs.write_file fs ~cred:root (p "/f") "x");
  check_ok "chmod" (Fs.chmod fs ~cred:root (p "/f") 0o600);
  check_err "alice denied" Vfs.Errno.EACCES (Fs.read_file fs ~cred:alice (p "/f"));
  let acl =
    Vfs.Acl.add
      (Vfs.Acl.add Vfs.Acl.empty { Vfs.Acl.tag = Vfs.Acl.User 100; perms = 4 })
      { Vfs.Acl.tag = Vfs.Acl.Mask; perms = 7 }
  in
  check_ok "grant via acl" (Fs.set_acl fs ~cred:root (p "/f") acl);
  Alcotest.(check string) "acl read" "x"
    (check_ok "read" (Fs.read_file fs ~cred:alice (p "/f")));
  check_ok "revoke acl" (Fs.set_acl fs ~cred:root (p "/f") Vfs.Acl.empty);
  check_err "alice denied again" Vfs.Errno.EACCES
    (Fs.read_file fs ~cred:alice (p "/f"))

let test_replay_on_replica () =
  let primary = fresh () in
  let replica = fresh () in
  (* pipe the primary's op stream straight into the replica, the way the
     DFS layer replicates, without re-emitting (~emit:false) *)
  ignore
    (Fs.subscribe primary (fun op ->
         ignore (Fs.replay ~emit:false replica op)));
  check_ok "mkdir" (Fs.mkdir primary ~cred:root (p "/a"));
  check_ok "write" (Fs.write_file primary ~cred:root (p "/a/f") "v1");
  (* look paths up on the replica first: positive, negative, alice *)
  Alcotest.(check string) "replica serves" "v1"
    (check_ok "read" (Fs.read_file replica ~cred:root (p "/a/f")));
  check_err "replica negative" Vfs.Errno.ENOENT
    (Fs.read_file replica ~cred:root (p "/a/g"));
  Alcotest.(check string) "alice too" "v1"
    (check_ok "read" (Fs.read_file replica ~cred:alice (p "/a/f")));
  (* structural op: a replayed create turns ENOENT into content *)
  check_ok "create g" (Fs.write_file primary ~cred:root (p "/a/g") "new");
  Alcotest.(check string) "created on replica" "new"
    (check_ok "read" (Fs.read_file replica ~cred:root (p "/a/g")));
  (* attribute op: replay applies chmod inline, bypassing [chmod]; the
     replica must still deny alice traversal *)
  check_ok "chmod" (Fs.chmod primary ~cred:root (p "/a") 0o700);
  check_err "alice locked out of replica" Vfs.Errno.EACCES
    (Fs.read_file replica ~cred:alice (p "/a/f"));
  (* rename: the replica's old path must move *)
  check_ok "rename" (Fs.rename primary ~cred:root ~src:(p "/a") ~dst:(p "/b"));
  check_err "old path gone on replica" Vfs.Errno.ENOENT
    (Fs.read_file replica ~cred:root (p "/a/f"));
  Alcotest.(check string) "new path live on replica" "v1"
    (check_ok "read" (Fs.read_file replica ~cred:root (p "/b/f")));
  (* unlink *)
  check_ok "unlink" (Fs.unlink primary ~cred:root (p "/b/f"));
  check_err "unlinked on replica" Vfs.Errno.ENOENT
    (Fs.read_file replica ~cred:root (p "/b/f"))

let test_readonly_flips () =
  let fs = fresh () in
  check_ok "write" (Fs.write_file fs ~cred:root (p "/f") "x");
  Alcotest.(check string) "before" "x"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/f")));
  Fs.set_readonly fs true;
  (* lookups keep working; mutations fail with EROFS and leave no
     trace *)
  Alcotest.(check string) "read under readonly" "x"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/f")));
  Alcotest.(check bool) "exists under readonly" true (Fs.exists fs ~cred:root (p "/f"));
  check_err "write blocked" Vfs.Errno.EROFS
    (Fs.write_file fs ~cred:root (p "/f") "y");
  check_err "create blocked" Vfs.Errno.EROFS
    (Fs.create_file fs ~cred:root (p "/g"));
  Fs.set_readonly fs false;
  check_ok "write after flip back" (Fs.write_file fs ~cred:root (p "/f") "y");
  Alcotest.(check string) "new content" "y"
    (check_ok "read" (Fs.read_file fs ~cred:root (p "/f")));
  check_err "no /g after the failed create" Vfs.Errno.ENOENT
    (Fs.read_file fs ~cred:root (p "/g"));
  check_ok "create after flip back" (Fs.create_file fs ~cred:root (p "/g"));
  Alcotest.(check bool) "g exists" true (Fs.exists fs ~cred:root (p "/g"))

(* --- errno and event trace golden ------------------------------------------- *)

(* A script over every edge above; each step's outcome is recorded as a
   string, and a recursive fsnotify watch on / records the emitted
   event sequence. The expected traces were recorded from the file
   system when it still served lookups from a full-path dentry and
   permission cache, with the cache on and off agreeing. *)
let run_trace_script fs =
  let n = Fsnotify.Notifier.create fs in
  ignore (Fsnotify.Notifier.add_watch ~recursive:true n Path.root Fsnotify.Notifier.all);
  let out = ref [] in
  let record what r =
    let s =
      match r with Ok () -> "ok" | Error e -> Vfs.Errno.to_string e
    in
    out := (what ^ ":" ^ s) :: !out
  in
  let u r = Result.map (fun _ -> ()) r in
  record "mkdir" (Fs.mkdir_p fs ~cred:root (p "/net/sw1/flows"));
  record "write" (Fs.write_file fs ~cred:root (p "/net/sw1/flows/f1") "a");
  record "read" (u (Fs.read_file fs ~cred:root (p "/net/sw1/flows/f1")));
  record "read-again" (u (Fs.read_file fs ~cred:root (p "/net/sw1/flows/f1")));
  record "miss" (u (Fs.stat fs ~cred:root (p "/net/sw1/flows/nope")));
  record "miss-again" (u (Fs.stat fs ~cred:root (p "/net/sw1/flows/nope")));
  record "fill-miss" (Fs.write_file fs ~cred:root (p "/net/sw1/flows/nope") "b");
  record "read-filled" (u (Fs.read_file fs ~cred:root (p "/net/sw1/flows/nope")));
  record "alice-denied" (u (Fs.read_file fs ~cred:alice (p "/net/sw1/flows/f1")));
  record "open-up" (Fs.chmod fs ~cred:root (p "/net/sw1/flows/f1") 0o644);
  record "alice-read" (u (Fs.read_file fs ~cred:alice (p "/net/sw1/flows/f1")));
  record "lock-dir" (Fs.chmod fs ~cred:root (p "/net/sw1") 0o700);
  record "alice-locked" (u (Fs.read_file fs ~cred:alice (p "/net/sw1/flows/f1")));
  record "unlock-dir" (Fs.chmod fs ~cred:root (p "/net/sw1") 0o755);
  record "alice-back" (u (Fs.read_file fs ~cred:alice (p "/net/sw1/flows/f1")));
  record "rename" (Fs.rename fs ~cred:root ~src:(p "/net/sw1") ~dst:(p "/net/sw2"));
  record "old-gone" (u (Fs.read_file fs ~cred:root (p "/net/sw1/flows/f1")));
  record "new-live" (u (Fs.read_file fs ~cred:root (p "/net/sw2/flows/f1")));
  record "symlink" (Fs.symlink fs ~cred:root ~target:"/net/sw2" (p "/net/sw1"));
  record "via-link" (u (Fs.read_file fs ~cred:root (p "/net/sw1/flows/f1")));
  record "unlink-link" (Fs.unlink fs ~cred:root (p "/net/sw1"));
  record "link-gone" (u (Fs.read_file fs ~cred:root (p "/net/sw1/flows/f1")));
  Fs.set_readonly fs true;
  record "ro-write" (Fs.write_file fs ~cred:root (p "/net/sw2/flows/f1") "c");
  record "ro-read" (u (Fs.read_file fs ~cred:root (p "/net/sw2/flows/f1")));
  Fs.set_readonly fs false;
  record "rw-write" (Fs.write_file fs ~cred:root (p "/net/sw2/flows/f1") "c");
  record "replay"
    (Fs.replay ~emit:true fs
       (Vfs.Op.Chmod { path = p "/net/sw2/flows/f1"; mode = 0o600 }));
  record "alice-replayed-out" (u (Fs.read_file fs ~cred:alice (p "/net/sw2/flows/f1")));
  record "rmdir" (Fs.rmdir ~recursive:true fs ~cred:root (p "/net/sw2"));
  record "all-gone" (u (Fs.stat fs ~cred:root (p "/net/sw2/flows/f1")));
  let events =
    List.map
      (Format.asprintf "%a" Fsnotify.Event.pp)
      (Fsnotify.Notifier.read_events n)
  in
  List.rev !out, events

let golden_results =
  [ "mkdir:ok"; "write:ok"; "read:ok"; "read-again:ok"; "miss:enoent";
    "miss-again:enoent"; "fill-miss:ok"; "read-filled:ok"; "alice-denied:ok";
    "open-up:ok"; "alice-read:ok"; "lock-dir:ok"; "alice-locked:eacces";
    "unlock-dir:ok"; "alice-back:ok"; "rename:ok"; "old-gone:enoent";
    "new-live:ok"; "symlink:ok"; "via-link:ok"; "unlink-link:ok";
    "link-gone:enoent"; "ro-write:erofs"; "ro-read:ok"; "rw-write:ok";
    "replay:ok"; "alice-replayed-out:eacces"; "rmdir:ok"; "all-gone:enoent" ]

let golden_events =
  [ "[wd=1 created /net name=net]"; "[wd=1 created /net/sw1 name=sw1]";
    "[wd=1 created /net/sw1/flows name=flows]";
    "[wd=1 created /net/sw1/flows/f1 name=f1]";
    "[wd=1 modified /net/sw1/flows/f1 name=f1]";
    "[wd=1 created /net/sw1/flows/nope name=nope]";
    "[wd=1 modified /net/sw1/flows/nope name=nope]";
    "[wd=1 attrib /net/sw1/flows/f1 name=f1]";
    "[wd=1 attrib /net/sw1 name=sw1]"; "[wd=1 attrib /net/sw1 name=sw1]";
    "[wd=1 moved_from /net/sw1 name=sw1]";
    "[wd=1 moved_to /net/sw2 name=sw2]"; "[wd=1 created /net/sw1 name=sw1]";
    "[wd=1 deleted /net/sw1 name=sw1]";
    "[wd=1 modified /net/sw2/flows/f1 name=f1]";
    "[wd=1 attrib /net/sw2/flows/f1 name=f1]";
    "[wd=1 deleted /net/sw2/flows/f1 name=f1]";
    "[wd=1 deleted /net/sw2/flows/nope name=nope]";
    "[wd=1 deleted /net/sw2/flows name=flows]";
    "[wd=1 deleted /net/sw2 name=sw2]" ]

let test_trace_golden () =
  let results, events = run_trace_script (fresh ()) in
  Alcotest.(check (list string)) "errno results" golden_results results;
  Alcotest.(check (list string)) "fsnotify event sequence" golden_events events

(* --- resolution through symlinks ------------------------------------------- *)

(* A mutation made through a symlinked parent journals the canonical
   path: DFS routing and fsnotify watches key on it. *)
let test_symlinked_parent_journals_canonical () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/net/switches/sw1/flows"));
  check_ok "ln" (Fs.symlink fs ~cred ~target:"/net/switches/sw1" (p "/sw"));
  check_ok "ln rel" (Fs.symlink fs ~cred ~target:"flows" (p "/net/switches/sw1/f"));
  let n = Fsnotify.Notifier.create fs in
  ignore
    (Fsnotify.Notifier.add_watch ~recursive:true n (p "/net")
       Fsnotify.Notifier.all);
  let seen = ref [] in
  let hook = Fs.subscribe fs (fun op -> seen := op :: !seen) in
  check_ok "mkdir via link" (Fs.mkdir fs ~cred (p "/sw/flows/g1"));
  check_ok "write via link" (Fs.write_file fs ~cred (p "/sw/flows/g1/priority") "7");
  check_ok "write via two links" (Fs.write_file fs ~cred (p "/sw/f/g1/version") "1");
  Fs.unsubscribe fs hook;
  let ops =
    List.rev_map
      (function
        | Vfs.Op.Mkdir { path; _ } -> "mkdir " ^ Path.to_string path
        | Vfs.Op.Create { path; _ } -> "create " ^ Path.to_string path
        | Vfs.Op.Write { path; _ } -> "write " ^ Path.to_string path
        | _ -> "other")
      !seen
  in
  Alcotest.(check (list string)) "hook sees canonical paths"
    [ "mkdir /net/switches/sw1/flows/g1";
      "create /net/switches/sw1/flows/g1/priority";
      "write /net/switches/sw1/flows/g1/priority";
      "create /net/switches/sw1/flows/g1/version";
      "write /net/switches/sw1/flows/g1/version" ]
    ops;
  let events =
    List.map
      (fun (e : Fsnotify.Event.t) -> Path.to_string e.path)
      (Fsnotify.Notifier.read_events n)
  in
  Alcotest.(check (list string)) "events carry canonical paths"
    [ "/net/switches/sw1/flows/g1"; "/net/switches/sw1/flows/g1/priority";
      "/net/switches/sw1/flows/g1/priority";
      "/net/switches/sw1/flows/g1/version"; "/net/switches/sw1/flows/g1/version" ]
    events;
  Alcotest.(check string) "canonical read" "7"
    (check_ok "read" (Fs.read_file fs ~cred (p "/net/switches/sw1/flows/g1/priority")))

(* A final symlink is followed by [stat] and not by [lstat], also when
   the parent itself was reached through a symlink. *)
let test_final_symlink_follow () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/real/sub"));
  check_ok "w" (Fs.write_file fs ~cred (p "/real/sub/f") "1234");
  check_ok "ln dir" (Fs.symlink fs ~cred ~target:"/real" (p "/alias"));
  check_ok "ln file" (Fs.symlink fs ~cred ~target:"sub/f" (p "/real/lf"));
  List.iter
    (fun path ->
      let st = check_ok "stat" (Fs.stat fs ~cred (p path)) in
      Alcotest.(check bool) (path ^ ": stat follows") true (st.Fs.kind = Fs.File);
      Alcotest.(check int) (path ^ ": target size") 4 st.Fs.size;
      let lst = check_ok "lstat" (Fs.lstat fs ~cred (p path)) in
      Alcotest.(check bool) (path ^ ": lstat does not") true
        (lst.Fs.kind = Fs.Symlink);
      Alcotest.(check string) (path ^ ": canonical") "/real/sub/f"
        (Path.to_string (check_ok "canon" (Fs.canonicalize fs ~cred (p path)))))
    [ "/real/lf"; "/alias/lf" ];
  let lst = check_ok "lstat dir link" (Fs.lstat fs ~cred (p "/alias")) in
  Alcotest.(check bool) "lstat of a dir link" true (lst.Fs.kind = Fs.Symlink);
  check_err "no follow past a file" Vfs.Errno.ENOTDIR
    (Fs.stat fs ~cred (p "/alias/lf/x"))

let () =
  Alcotest.run "lookup"
    [ ( "symlink resolution",
        [ Alcotest.test_case "symlinked parent journals canonical" `Quick
            test_symlinked_parent_journals_canonical;
          Alcotest.test_case "final symlink follow" `Quick
            test_final_symlink_follow ] );
      ( "namespace invalidation",
        [ Alcotest.test_case "rename over cached prefix" `Quick
            test_rename_over_prefix;
          Alcotest.test_case "rename onto cached destination" `Quick
            test_rename_onto_destination;
          Alcotest.test_case "symlink retarget" `Quick test_symlink_retarget;
          Alcotest.test_case "recursive rmdir" `Quick
            test_rmdir_recursive ] );
      ( "attribute invalidation",
        [ Alcotest.test_case "chmod" `Quick test_chmod_traversal;
          Alcotest.test_case "chown" `Quick test_chown_access;
          Alcotest.test_case "set_acl" `Quick test_set_acl_access ] );
      ( "replication",
        [ Alcotest.test_case "replay ~emit:false on a replica" `Quick
            test_replay_on_replica ] );
      ( "modes",
        [ Alcotest.test_case "readonly flips" `Quick test_readonly_flips ] );
      ( "equivalence",
        [ Alcotest.test_case "errno and event golden" `Quick
            test_trace_golden ] ) ]
