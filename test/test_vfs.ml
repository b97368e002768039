(* Unit and property tests for the VFS substrate. *)

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

(* --- Path ---------------------------------------------------------------- *)

let test_path_parse () =
  Alcotest.(check string) "root" "/" (Path.to_string (p "/"));
  Alcotest.(check string) "simple" "/a/b" (Path.to_string (p "/a/b"));
  Alcotest.(check string) "trailing slash" "/a" (Path.to_string (p "/a/"));
  Alcotest.(check string) "double slash" "/a/b" (Path.to_string (p "/a//b"));
  Alcotest.(check string) "dot" "/a/b" (Path.to_string (p "/a/./b"));
  Alcotest.(check string) "dotdot" "/b" (Path.to_string (p "/a/../b"));
  Alcotest.(check string) "dotdot at root" "/a" (Path.to_string (p "/../a"));
  Alcotest.(check bool) "empty is error" true (Result.is_error (Path.of_string ""))

let test_path_relatives () =
  Alcotest.(check string) "relative parses from root" "/x/y" (Path.to_string (p "x/y"));
  Alcotest.(check (option string)) "parent" (Some "/a")
    (Option.map Path.to_string (Path.parent (p "/a/b")));
  Alcotest.(check (option string)) "parent of root" None
    (Option.map Path.to_string (Path.parent Path.root));
  Alcotest.(check (option string)) "basename" (Some "b") (Path.basename (p "/a/b"));
  Alcotest.(check bool) "prefix yes" true (Path.is_prefix (p "/a") (p "/a/b/c"));
  Alcotest.(check bool) "prefix no" false (Path.is_prefix (p "/a/b") (p "/a"));
  Alcotest.(check bool) "prefix not component-split" false
    (Path.is_prefix (p "/a") (p "/ab"));
  Alcotest.(check (option string)) "strip_prefix" (Some "/b/c")
    (Option.map Path.to_string (Path.strip_prefix ~prefix:(p "/a") (p "/a/b/c")))

let test_path_valid_name () =
  Alcotest.(check bool) "plain" true (Path.valid_name "sw1");
  Alcotest.(check bool) "empty" false (Path.valid_name "");
  Alcotest.(check bool) "dot" false (Path.valid_name ".");
  Alcotest.(check bool) "dotdot" false (Path.valid_name "..");
  Alcotest.(check bool) "slash" false (Path.valid_name "a/b");
  Alcotest.(check bool) "nul" false (Path.valid_name "a\000b");
  Alcotest.(check bool) "long" false (Path.valid_name (String.make 256 'x'))

(* --- Perm / Acl ------------------------------------------------------------ *)

let test_perm_check () =
  let owner = Cred.make ~uid:10 ~gid:20 () in
  let groupie = Cred.make ~uid:11 ~gid:20 () in
  let other = Cred.make ~uid:12 ~gid:21 () in
  let check c a = Vfs.Perm.check ~mode:0o640 ~owner:10 ~group:20 c a in
  Alcotest.(check bool) "owner read" true (check owner Vfs.Perm.r_ok);
  Alcotest.(check bool) "owner write" true (check owner Vfs.Perm.w_ok);
  Alcotest.(check bool) "owner no exec" false (check owner Vfs.Perm.x_ok);
  Alcotest.(check bool) "group read" true (check groupie Vfs.Perm.r_ok);
  Alcotest.(check bool) "group no write" false (check groupie Vfs.Perm.w_ok);
  Alcotest.(check bool) "other nothing" false (check other Vfs.Perm.r_ok);
  Alcotest.(check bool) "root everything" true
    (Vfs.Perm.check ~mode:0 ~owner:10 ~group:20 Cred.root Vfs.Perm.w_ok)

let test_perm_string () =
  Alcotest.(check string) "755" "drwxr-xr-x" (Vfs.Perm.to_string ~kind:'d' 0o755);
  Alcotest.(check string) "640" "-rw-r-----" (Vfs.Perm.to_string ~kind:'-' 0o640);
  Alcotest.(check (option int)) "parse" (Some 0o755) (Vfs.Perm.of_string "rwxr-xr-x");
  Alcotest.(check (option int)) "parse bad" None (Vfs.Perm.of_string "rwxr-xr-q")

let test_acl_check () =
  let alice = Cred.make ~uid:100 ~gid:100 () in
  let bob = Cred.make ~uid:101 ~gid:101 () in
  (* file owned by 1:1, mode 600, but ACL grants bob read *)
  let acl =
    Vfs.Acl.add
      (Vfs.Acl.add Vfs.Acl.empty { Vfs.Acl.tag = Vfs.Acl.User 101; perms = 4 })
      { Vfs.Acl.tag = Vfs.Acl.Mask; perms = 7 }
  in
  let check c a = Vfs.Acl.check ~acl ~mode:0o600 ~owner:1 ~group:1 c a in
  Alcotest.(check bool) "bob can read via acl" true (check bob Vfs.Perm.r_ok);
  Alcotest.(check bool) "bob cannot write" false (check bob Vfs.Perm.w_ok);
  Alcotest.(check bool) "alice cannot read" false (check alice Vfs.Perm.r_ok)

let test_acl_mask () =
  let bob = Cred.make ~uid:101 ~gid:101 () in
  let acl =
    Vfs.Acl.add
      (Vfs.Acl.add Vfs.Acl.empty { Vfs.Acl.tag = Vfs.Acl.User 101; perms = 7 })
      { Vfs.Acl.tag = Vfs.Acl.Mask; perms = 4 }
  in
  let check a = Vfs.Acl.check ~acl ~mode:0o600 ~owner:1 ~group:1 bob a in
  Alcotest.(check bool) "mask caps write" false (check Vfs.Perm.w_ok);
  Alcotest.(check bool) "mask allows read" true (check Vfs.Perm.r_ok)

let test_acl_text_roundtrip () =
  let acl =
    [ { Vfs.Acl.tag = Vfs.Acl.User 7; perms = 6 };
      { Vfs.Acl.tag = Vfs.Acl.Group 9; perms = 4 };
      { Vfs.Acl.tag = Vfs.Acl.Mask; perms = 6 } ]
  in
  Alcotest.(check bool) "validates" true (Vfs.Acl.validate acl);
  let text = Vfs.Acl.to_text ~mode:0o640 acl in
  match Vfs.Acl.of_text text with
  | Error e -> Alcotest.failf "parse back: %s" e
  | Ok parsed ->
    let has tag perms =
      List.exists (fun e -> e.Vfs.Acl.tag = tag && e.perms = perms) parsed
    in
    Alcotest.(check bool) "user entry kept" true (has (Vfs.Acl.User 7) 6);
    Alcotest.(check bool) "group entry kept" true (has (Vfs.Acl.Group 9) 4);
    Alcotest.(check bool) "mask kept" true (has Vfs.Acl.Mask 6)

let test_acl_validate () =
  let dup =
    [ { Vfs.Acl.tag = Vfs.Acl.User 7; perms = 6 };
      { Vfs.Acl.tag = Vfs.Acl.User 7; perms = 4 };
      { Vfs.Acl.tag = Vfs.Acl.Mask; perms = 7 } ]
  in
  Alcotest.(check bool) "duplicate user invalid" false (Vfs.Acl.validate dup);
  let no_mask = [ { Vfs.Acl.tag = Vfs.Acl.User 7; perms = 6 } ] in
  Alcotest.(check bool) "named without mask invalid" false (Vfs.Acl.validate no_mask)

(* --- Basic FS operations ----------------------------------------------------- *)

let test_mkdir_and_readdir () =
  let fs = fresh () in
  check_ok "mkdir a" (Fs.mkdir fs ~cred (p "/a"));
  check_ok "mkdir a/b" (Fs.mkdir fs ~cred (p "/a/b"));
  check_ok "mkdir a/c" (Fs.mkdir fs ~cred (p "/a/c"));
  Alcotest.(check (list string)) "readdir sorted" [ "b"; "c" ]
    (check_ok "readdir" (Fs.readdir fs ~cred (p "/a")));
  check_err "mkdir exists" Vfs.Errno.EEXIST (Fs.mkdir fs ~cred (p "/a"));
  check_err "mkdir missing parent" Vfs.Errno.ENOENT (Fs.mkdir fs ~cred (p "/x/y"))

let test_mkdir_p () =
  let fs = fresh () in
  check_ok "mkdir_p" (Fs.mkdir_p fs ~cred (p "/a/b/c/d"));
  Alcotest.(check bool) "deep dir exists" true (Fs.is_dir fs ~cred (p "/a/b/c/d"));
  check_ok "mkdir_p idempotent" (Fs.mkdir_p fs ~cred (p "/a/b/c/d"))

let test_file_write_read () =
  let fs = fresh () in
  check_ok "mkdir" (Fs.mkdir fs ~cred (p "/d"));
  check_ok "write" (Fs.write_file fs ~cred (p "/d/f") "hello");
  Alcotest.(check string) "read" "hello"
    (check_ok "read" (Fs.read_file fs ~cred (p "/d/f")));
  check_ok "overwrite" (Fs.write_file fs ~cred (p "/d/f") "bye");
  Alcotest.(check string) "truncating write" "bye"
    (check_ok "read2" (Fs.read_file fs ~cred (p "/d/f")));
  check_ok "append" (Fs.append_file fs ~cred (p "/d/f") "!!");
  Alcotest.(check string) "append result" "bye!!"
    (check_ok "read3" (Fs.read_file fs ~cred (p "/d/f")))

let test_create_excl () =
  let fs = fresh () in
  check_ok "create" (Fs.create_file fs ~cred (p "/f"));
  check_err "create again" Vfs.Errno.EEXIST (Fs.create_file fs ~cred (p "/f"));
  Alcotest.(check string) "empty" "" (check_ok "read" (Fs.read_file fs ~cred (p "/f")))

let test_truncate () =
  let fs = fresh () in
  check_ok "write" (Fs.write_file fs ~cred (p "/f") "abcdef");
  check_ok "shrink" (Fs.truncate fs ~cred (p "/f") 3);
  Alcotest.(check string) "shrunk" "abc" (check_ok "r" (Fs.read_file fs ~cred (p "/f")));
  check_ok "grow" (Fs.truncate fs ~cred (p "/f") 5);
  Alcotest.(check string) "zero filled" "abc\000\000"
    (check_ok "r2" (Fs.read_file fs ~cred (p "/f")));
  check_err "negative" Vfs.Errno.EINVAL (Fs.truncate fs ~cred (p "/f") (-1))

let test_unlink () =
  let fs = fresh () in
  check_ok "write" (Fs.write_file fs ~cred (p "/f") "x");
  check_ok "unlink" (Fs.unlink fs ~cred (p "/f"));
  check_err "gone" Vfs.Errno.ENOENT (Fs.read_file fs ~cred (p "/f"));
  check_ok "mkdir" (Fs.mkdir fs ~cred (p "/d"));
  check_err "unlink dir" Vfs.Errno.EISDIR (Fs.unlink fs ~cred (p "/d"))

let test_rmdir () =
  let fs = fresh () in
  check_ok "mkdir" (Fs.mkdir fs ~cred (p "/d"));
  check_ok "mkdir sub" (Fs.mkdir fs ~cred (p "/d/s"));
  check_err "not empty" Vfs.Errno.ENOTEMPTY (Fs.rmdir fs ~cred (p "/d"));
  check_ok "recursive" (Fs.rmdir ~recursive:true fs ~cred (p "/d"));
  Alcotest.(check bool) "gone" false (Fs.exists fs ~cred (p "/d"));
  check_err "rmdir file" Vfs.Errno.ENOTDIR
    (let _ = Fs.write_file fs ~cred (p "/f") "" in
     Fs.rmdir fs ~cred (p "/f"))

let test_rename () =
  let fs = fresh () in
  check_ok "w" (Fs.write_file fs ~cred (p "/f") "data");
  check_ok "mv" (Fs.rename fs ~cred ~src:(p "/f") ~dst:(p "/g"));
  check_err "src gone" Vfs.Errno.ENOENT (Fs.read_file fs ~cred (p "/f"));
  Alcotest.(check string) "content survives" "data"
    (check_ok "read" (Fs.read_file fs ~cred (p "/g")));
  (* replace an existing file atomically *)
  check_ok "w2" (Fs.write_file fs ~cred (p "/h") "old");
  check_ok "mv over" (Fs.rename fs ~cred ~src:(p "/g") ~dst:(p "/h"));
  Alcotest.(check string) "replaced" "data"
    (check_ok "read2" (Fs.read_file fs ~cred (p "/h")))

let test_rename_dirs () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/a/b"));
  check_ok "w" (Fs.write_file fs ~cred (p "/a/b/f") "x");
  check_ok "mv tree" (Fs.rename fs ~cred ~src:(p "/a") ~dst:(p "/z"));
  Alcotest.(check string) "subtree moved" "x"
    (check_ok "read" (Fs.read_file fs ~cred (p "/z/b/f")));
  (* cannot move a directory into itself *)
  check_err "into itself" Vfs.Errno.EINVAL
    (Fs.rename fs ~cred ~src:(p "/z") ~dst:(p "/z/b/deeper"));
  (* cannot replace non-empty dir *)
  check_ok "mk2" (Fs.mkdir_p fs ~cred (p "/w/inner"));
  check_ok "mk3" (Fs.mkdir fs ~cred (p "/v"));
  check_err "replace non-empty" Vfs.Errno.ENOTEMPTY
    (Fs.rename fs ~cred ~src:(p "/v") ~dst:(p "/w"))

let test_symlink_readlink () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir fs ~cred (p "/d"));
  check_ok "w" (Fs.write_file fs ~cred (p "/d/f") "via-link");
  check_ok "ln" (Fs.symlink fs ~cred ~target:"/d/f" (p "/l"));
  Alcotest.(check string) "readlink" "/d/f"
    (check_ok "rl" (Fs.readlink fs ~cred (p "/l")));
  Alcotest.(check string) "read through link" "via-link"
    (check_ok "read" (Fs.read_file fs ~cred (p "/l")));
  (* relative target *)
  check_ok "ln rel" (Fs.symlink fs ~cred ~target:"f" (p "/d/rel"));
  Alcotest.(check string) "relative resolve" "via-link"
    (check_ok "read rel" (Fs.read_file fs ~cred (p "/d/rel")))

let test_symlink_loop () =
  let fs = fresh () in
  check_ok "a->b" (Fs.symlink fs ~cred ~target:"/b" (p "/a"));
  check_ok "b->a" (Fs.symlink fs ~cred ~target:"/a" (p "/b"));
  check_err "loop" Vfs.Errno.ELOOP (Fs.read_file fs ~cred (p "/a"))

let test_symlink_dir_traverse () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/real/sub"));
  check_ok "w" (Fs.write_file fs ~cred (p "/real/sub/f") "deep");
  check_ok "ln" (Fs.symlink fs ~cred ~target:"/real" (p "/alias"));
  Alcotest.(check string) "traverse through symlinked dir" "deep"
    (check_ok "read" (Fs.read_file fs ~cred (p "/alias/sub/f")));
  Alcotest.(check string) "canonicalize" "/real/sub/f"
    (Path.to_string (check_ok "canon" (Fs.canonicalize fs ~cred (p "/alias/sub/f"))))

let test_stat_lstat () =
  let fs = fresh () in
  check_ok "w" (Fs.write_file fs ~cred (p "/f") "1234");
  check_ok "ln" (Fs.symlink fs ~cred ~target:"/f" (p "/l"));
  let st = check_ok "stat" (Fs.stat fs ~cred (p "/l")) in
  Alcotest.(check bool) "stat follows" true (st.Fs.kind = Fs.File);
  Alcotest.(check int) "size" 4 st.Fs.size;
  let lst = check_ok "lstat" (Fs.lstat fs ~cred (p "/l")) in
  Alcotest.(check bool) "lstat does not follow" true (lst.Fs.kind = Fs.Symlink);
  let dst = check_ok "stat dir" (Fs.stat fs ~cred Path.root) in
  Alcotest.(check bool) "root is dir" true (dst.Fs.kind = Fs.Dir)

let test_nlink () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/d/s1"));
  check_ok "mk2" (Fs.mkdir fs ~cred (p "/d/s2"));
  check_ok "w" (Fs.write_file fs ~cred (p "/d/f") "");
  let st = check_ok "stat" (Fs.stat fs ~cred (p "/d")) in
  Alcotest.(check int) "nlink = 2 + subdirs" 4 st.Fs.nlink

(* --- permissions in the tree ------------------------------------------------- *)

let alice = Cred.make ~uid:100 ~gid:100 ()
let bob = Cred.make ~uid:200 ~gid:200 ()

let test_permission_enforcement () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir fs ~cred (p "/shared"));
  check_ok "chmod 777" (Fs.chmod fs ~cred (p "/shared") 0o777);
  check_ok "alice writes" (Fs.write_file fs ~cred:alice (p "/shared/a") "mine");
  (* alice's file is 644: bob can read, not write *)
  Alcotest.(check string) "bob reads" "mine"
    (check_ok "read" (Fs.read_file fs ~cred:bob (p "/shared/a")));
  check_err "bob cannot write" Vfs.Errno.EACCES
    (Fs.write_file fs ~cred:bob (p "/shared/a") "stolen");
  (* private dir *)
  check_ok "alice mkdir" (Fs.mkdir ~mode:0o700 fs ~cred:alice (p "/shared/private"));
  check_ok "alice writes inside"
    (Fs.write_file fs ~cred:alice (p "/shared/private/s") "secret");
  check_err "bob cannot traverse" Vfs.Errno.EACCES
    (Fs.read_file fs ~cred:bob (p "/shared/private/s"));
  check_err "bob cannot list" Vfs.Errno.EACCES
    (Fs.readdir fs ~cred:bob (p "/shared/private"))

let test_chmod_chown_rules () =
  let fs = fresh () in
  check_ok "mk 777" (Fs.chmod fs ~cred Path.root 0o777);
  check_ok "alice file" (Fs.write_file fs ~cred:alice (p "/af") "x");
  check_err "bob cannot chmod alice's file" Vfs.Errno.EPERM
    (Fs.chmod fs ~cred:bob (p "/af") 0o777);
  check_ok "alice chmods own" (Fs.chmod fs ~cred:alice (p "/af") 0o600);
  check_err "alice cannot chown" Vfs.Errno.EPERM
    (Fs.chown fs ~cred:alice (p "/af") ~uid:200 ~gid:200);
  check_ok "root chowns" (Fs.chown fs ~cred (p "/af") ~uid:200 ~gid:200);
  let st = check_ok "stat" (Fs.stat fs ~cred (p "/af")) in
  Alcotest.(check int) "new owner" 200 st.Fs.uid

let test_acl_on_fs () =
  let fs = fresh () in
  check_ok "mk 777 root" (Fs.chmod fs ~cred Path.root 0o777);
  check_ok "alice writes" (Fs.write_file fs ~cred:alice (p "/f") "data");
  check_ok "alice chmod 600" (Fs.chmod fs ~cred:alice (p "/f") 0o600);
  check_err "bob denied" Vfs.Errno.EACCES (Fs.read_file fs ~cred:bob (p "/f"));
  let acl =
    [ { Vfs.Acl.tag = Vfs.Acl.User 200; perms = 4 };
      { Vfs.Acl.tag = Vfs.Acl.Mask; perms = 7 } ]
  in
  check_ok "alice sets acl" (Fs.set_acl fs ~cred:alice (p "/f") acl);
  Alcotest.(check string) "bob allowed via acl" "data"
    (check_ok "read" (Fs.read_file fs ~cred:bob (p "/f")));
  check_err "bob still cannot write" Vfs.Errno.EACCES
    (Fs.write_file fs ~cred:bob (p "/f") "nope");
  check_err "invalid acl rejected" Vfs.Errno.EINVAL
    (Fs.set_acl fs ~cred:alice (p "/f")
       [ { Vfs.Acl.tag = Vfs.Acl.User 200; perms = 4 } ])

let test_readonly () =
  let fs = fresh () in
  check_ok "w" (Fs.write_file fs ~cred (p "/f") "x");
  Fs.set_readonly fs true;
  check_err "write denied" Vfs.Errno.EROFS (Fs.write_file fs ~cred (p "/f") "y");
  check_err "mkdir denied" Vfs.Errno.EROFS (Fs.mkdir fs ~cred (p "/d"));
  Alcotest.(check string) "reads fine" "x"
    (check_ok "read" (Fs.read_file fs ~cred (p "/f")));
  Fs.set_readonly fs false;
  check_ok "writable again" (Fs.write_file fs ~cred (p "/f") "y")

(* --- xattrs -------------------------------------------------------------------- *)

let test_xattrs () =
  let fs = fresh () in
  check_ok "w" (Fs.write_file fs ~cred (p "/f") "");
  check_ok "set" (Fs.setxattr fs ~cred (p "/f") ~name:"user.consistency" ~value:"strict");
  check_ok "set2" (Fs.setxattr fs ~cred (p "/f") ~name:"user.zone" ~value:"dmz");
  Alcotest.(check string) "get" "strict"
    (check_ok "get" (Fs.getxattr fs ~cred (p "/f") ~name:"user.consistency"));
  Alcotest.(check (list string)) "list" [ "user.consistency"; "user.zone" ]
    (check_ok "list" (Fs.listxattr fs ~cred (p "/f")));
  check_ok "remove" (Fs.removexattr fs ~cred (p "/f") ~name:"user.zone");
  check_err "gone" Vfs.Errno.ENOENT (Fs.getxattr fs ~cred (p "/f") ~name:"user.zone");
  check_err "remove missing" Vfs.Errno.ENOENT
    (Fs.removexattr fs ~cred (p "/f") ~name:"user.zone")

(* --- fds -------------------------------------------------------------------------- *)

let test_fd_basic () =
  let fs = fresh () in
  let fd =
    check_ok "open creat"
      (Fs.openfile fs ~cred (p "/f") [ Fs.O_rdwr; Fs.O_creat ])
  in
  Alcotest.(check int) "pwrite" 5 (check_ok "w" (Fs.pwrite fs fd ~off:0 "hello"));
  Alcotest.(check string) "pread" "ell"
    (check_ok "r" (Fs.pread fs fd ~off:1 ~len:3));
  Alcotest.(check string) "pread eof" ""
    (check_ok "r2" (Fs.pread fs fd ~off:99 ~len:4));
  check_ok "close" (Fs.close fs fd);
  check_err "closed fd" Vfs.Errno.EBADF (Fs.pread fs fd ~off:0 ~len:1)

let test_fd_flags () =
  let fs = fresh () in
  check_ok "w" (Fs.write_file fs ~cred (p "/f") "seed");
  check_err "excl on existing" Vfs.Errno.EEXIST
    (Result.map (fun _ -> ())
       (Fs.openfile fs ~cred (p "/f") [ Fs.O_wronly; Fs.O_creat; Fs.O_excl ]));
  let fd =
    check_ok "trunc" (Fs.openfile fs ~cred (p "/f") [ Fs.O_wronly; Fs.O_trunc ])
  in
  check_ok "close" (Fs.close fs fd);
  Alcotest.(check string) "truncated" ""
    (check_ok "read" (Fs.read_file fs ~cred (p "/f")));
  let fd2 =
    check_ok "append" (Fs.openfile fs ~cred (p "/f") [ Fs.O_wronly; Fs.O_append ])
  in
  ignore (check_ok "w1" (Fs.pwrite fs fd2 ~off:0 "a"));
  ignore (check_ok "w2" (Fs.pwrite fs fd2 ~off:0 "b"));
  check_ok "close2" (Fs.close fs fd2);
  Alcotest.(check string) "appended" "ab"
    (check_ok "read2" (Fs.read_file fs ~cred (p "/f")))

(* --- hooks, replay, policies ----------------------------------------------------- *)

let test_mutation_stream () =
  let fs = fresh () in
  let seen = ref [] in
  let hook = Fs.subscribe fs (fun op -> seen := op :: !seen) in
  check_ok "mkdir" (Fs.mkdir fs ~cred (p "/d"));
  check_ok "write" (Fs.write_file fs ~cred (p "/d/f") "x");
  check_ok "rm" (Fs.unlink fs ~cred (p "/d/f"));
  let kinds =
    List.rev_map
      (function
        | Vfs.Op.Mkdir _ -> "mkdir"
        | Vfs.Op.Create _ -> "create"
        | Vfs.Op.Write _ -> "write"
        | Vfs.Op.Truncate _ -> "truncate"
        | Vfs.Op.Unlink _ -> "unlink"
        | _ -> "other")
      !seen
  in
  Alcotest.(check (list string)) "op sequence"
    [ "mkdir"; "create"; "write"; "unlink" ]
    kinds;
  Fs.unsubscribe fs hook;
  check_ok "after unsub" (Fs.mkdir fs ~cred (p "/d2"));
  Alcotest.(check int) "no more ops" 4 (List.length !seen)

let test_replay_replicates () =
  let src = fresh () in
  let dst = fresh () in
  let hook = Fs.subscribe src (fun op -> ignore (Fs.replay dst op)) in
  check_ok "mk" (Fs.mkdir_p src ~cred (p "/net/switches/sw1"));
  check_ok "w" (Fs.write_file src ~cred (p "/net/switches/sw1/id") "1");
  check_ok "ln" (Fs.symlink src ~cred ~target:"/net" (p "/alias"));
  check_ok "chmod" (Fs.chmod src ~cred (p "/net") 0o700);
  Alcotest.(check string) "file replicated" "1"
    (check_ok "read" (Fs.read_file dst ~cred (p "/net/switches/sw1/id")));
  Alcotest.(check string) "symlink replicated" "/net"
    (check_ok "rl" (Fs.readlink dst ~cred (p "/alias")));
  let st = check_ok "stat" (Fs.stat dst ~cred (p "/net")) in
  Alcotest.(check int) "mode replicated" 0o700 st.Fs.mode;
  check_ok "rm" (Fs.rmdir ~recursive:true src ~cred (p "/net"));
  Alcotest.(check bool) "removal replicated" false (Fs.exists dst ~cred (p "/net"));
  Fs.unsubscribe src hook

let test_replay_idempotent () =
  let fs = fresh () in
  let op = Vfs.Op.Mkdir { path = p "/d"; mode = 0o755 } in
  check_ok "first" (Fs.replay fs op);
  check_ok "second" (Fs.replay fs op);
  check_ok "unlink missing ok" (Fs.replay fs (Vfs.Op.Unlink { path = p "/nope" }))

let test_rmdir_policy () =
  let fs = fresh () in
  Fs.set_rmdir_policy fs (fun path -> Path.basename path = Some "auto");
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/auto/sub"));
  check_ok "policy recursive rmdir" (Fs.rmdir fs ~cred (p "/auto"));
  check_ok "mk2" (Fs.mkdir_p fs ~cred (p "/manual/sub"));
  check_err "other dirs unchanged" Vfs.Errno.ENOTEMPTY (Fs.rmdir fs ~cred (p "/manual"))

let test_symlink_policy () =
  let fs = fresh () in
  Fs.set_symlink_policy fs (fun _ ~target -> target <> "/forbidden");
  check_err "rejected" Vfs.Errno.EINVAL
    (Fs.symlink fs ~cred ~target:"/forbidden" (p "/l"));
  check_ok "allowed" (Fs.symlink fs ~cred ~target:"/fine" (p "/l"))

(* --- cost model -------------------------------------------------------------------- *)

(* Read from a snapshot, so a missing series fails instead of reading 0. *)
let crossings fs =
  let snap = Telemetry.Registry.snapshot (Fs.registry fs) in
  match Telemetry.Registry.find snap "vfs.crossings" with
  | Some v -> int_of_float v
  | None -> Alcotest.fail "no vfs.crossings series"

let test_cost_counting () =
  let fs = fresh () in
  let c0 = crossings fs in
  check_ok "mk" (Fs.mkdir fs ~cred (p "/d"));
  check_ok "w" (Fs.write_file fs ~cred (p "/d/f") "x");
  ignore (check_ok "r" (Fs.read_file fs ~cred (p "/d/f")));
  Alcotest.(check int) "three syscalls" 3 (crossings fs - c0)

let test_cost_suspended () =
  let fs = fresh () in
  let c0 = crossings fs in
  Fs.suspended fs (fun () ->
      check_ok "mk" (Fs.mkdir fs ~cred (p "/d"));
      check_ok "w" (Fs.write_file fs ~cred (p "/d/f") "x"));
  Alcotest.(check int) "free inside suspension" 0 (crossings fs - c0);
  Fs.syscall fs;
  Alcotest.(check int) "counting resumes" 1 (crossings fs - c0)

(* --- walk / tree --------------------------------------------------------------------- *)

let test_walk () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/a/b"));
  check_ok "w1" (Fs.write_file fs ~cred (p "/a/f1") "");
  check_ok "w2" (Fs.write_file fs ~cred (p "/a/b/f2") "");
  match
    Fs.fold fs ~cred (p "/a") ~init:[] (fun acc path _ ->
        Path.to_string path :: acc, `Continue)
  with
  | Ok visited ->
    Alcotest.(check (list string)) "pre-order"
      [ "/a"; "/a/b"; "/a/b/f2"; "/a/f1" ]
      (List.rev visited)
  | Error e -> Alcotest.failf "fold: %s" (Vfs.Errno.to_string e)

let contains hay needle =
  let nl = String.length needle
  and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let test_tree_rendering () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/net/switches"));
  check_ok "mk2" (Fs.mkdir fs ~cred (p "/net/hosts"));
  check_ok "ln" (Fs.symlink fs ~cred ~target:"/x" (p "/net/link"));
  let text = check_ok "tree" (Fs.tree fs ~cred (p "/net")) in
  Alcotest.(check bool) "mentions hosts" true (contains text "hosts");
  Alcotest.(check bool) "symlink arrow" true (contains text "link -> /x")

let test_fold_accumulator () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/a/b"));
  check_ok "w1" (Fs.write_file fs ~cred (p "/a/f1") "xx");
  check_ok "w2" (Fs.write_file fs ~cred (p "/a/b/f2") "yyy");
  let bytes =
    check_ok "fold"
      (Fs.fold fs ~cred (p "/a") ~init:0 (fun acc _ st ->
           (if st.Fs.kind = Fs.File then acc + st.Fs.size else acc), `Continue))
  in
  Alcotest.(check int) "file sizes summed" 5 bytes

let test_fold_skip_subtree () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/a/skip/deep"));
  check_ok "mk2" (Fs.mkdir fs ~cred (p "/a/keep"));
  check_ok "w" (Fs.write_file fs ~cred (p "/a/skip/deep/f") "");
  let visited =
    check_ok "fold"
      (Fs.fold fs ~cred (p "/a") ~init:[] (fun acc path _ ->
           let acc = Path.to_string path :: acc in
           if Path.to_string path = "/a/skip" then acc, `Skip_subtree
           else acc, `Continue))
  in
  Alcotest.(check (list string)) "pruned below /a/skip"
    [ "/a"; "/a/keep"; "/a/skip" ] (List.rev visited)

let test_fold_early_stop () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir fs ~cred (p "/a"));
  List.iter
    (fun n -> check_ok "w" (Fs.write_file fs ~cred (p ("/a/" ^ n)) ""))
    [ "f1"; "f2"; "f3"; "f4" ];
  let seen =
    check_ok "fold"
      (Fs.fold fs ~cred (p "/a") ~init:0 (fun acc _ _ ->
           let acc = acc + 1 in
           acc, (if acc >= 3 then `Stop else `Continue)))
  in
  Alcotest.(check int) "stopped after three entries" 3 seen

let test_kind_of () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir fs ~cred (p "/d"));
  check_ok "w" (Fs.write_file fs ~cred (p "/d/f") "x");
  check_ok "ln" (Fs.symlink fs ~cred ~target:"/d/f" (p "/ln"));
  (match Fs.kind_of fs ~cred (p "/d") with
  | Ok Fs.Dir -> ()
  | _ -> Alcotest.fail "expected Dir");
  (match Fs.kind_of fs ~cred (p "/d/f") with
  | Ok Fs.File -> ()
  | _ -> Alcotest.fail "expected File");
  (match Fs.kind_of ~follow:false fs ~cred (p "/ln") with
  | Ok Fs.Symlink -> ()
  | _ -> Alcotest.fail "expected Symlink");
  (match Fs.kind_of fs ~cred (p "/ln") with
  | Ok Fs.File -> ()
  | _ -> Alcotest.fail "expected followed File");
  check_err "missing is ENOENT" Vfs.Errno.ENOENT
    (Result.map (fun _ -> ()) (Fs.kind_of fs ~cred (p "/nope")))

let test_kind_of_eacces_vs_enoent () =
  (* The reason kind_of exists: [exists]/[is_dir] conflate "not there"
     with "not allowed to look". kind_of keeps them apart. *)
  let fs = fresh () in
  let alice = Cred.make ~uid:100 ~gid:100 () in
  check_ok "mk" (Fs.mkdir_p fs ~cred (p "/priv/sub"));
  check_ok "w" (Fs.write_file fs ~cred (p "/priv/f") "x");
  check_ok "lock" (Fs.chmod fs ~cred (p "/priv") 0o700);
  check_err "denied, not missing" Vfs.Errno.EACCES
    (Result.map (fun _ -> ()) (Fs.kind_of fs ~cred:alice (p "/priv/f")));
  check_err "missing, not denied" Vfs.Errno.ENOENT
    (Result.map (fun _ -> ()) (Fs.kind_of fs ~cred:alice (p "/nope")));
  (* the bool forms flatten both to false *)
  Alcotest.(check bool) "exists conflates" false
    (Fs.exists fs ~cred:alice (p "/priv/f"));
  Alcotest.(check bool) "is_dir conflates" false
    (Fs.is_dir fs ~cred:alice (p "/priv/sub"))

(* --- edge cases ----------------------------------------------------------------------- *)

let test_edge_not_a_directory () =
  let fs = fresh () in
  check_ok "w" (Fs.write_file fs ~cred (p "/f") "data");
  check_err "component is a file" Vfs.Errno.ENOTDIR
    (Fs.write_file fs ~cred (p "/f/child") "x");
  check_err "readdir on file" Vfs.Errno.ENOTDIR (Fs.readdir fs ~cred (p "/f"));
  check_err "open dir for write" Vfs.Errno.EISDIR
    (let _ = Fs.mkdir fs ~cred (p "/d") in
     Result.map (fun _ -> ()) (Fs.openfile fs ~cred (p "/d") [ Fs.O_wronly ]))

let test_edge_append_creates () =
  let fs = fresh () in
  check_ok "append to missing file creates it"
    (Fs.append_file fs ~cred (p "/log") "line1\n");
  check_ok "append again" (Fs.append_file fs ~cred (p "/log") "line2\n");
  Alcotest.(check string) "both lines" "line1\nline2\n"
    (check_ok "read" (Fs.read_file fs ~cred (p "/log")))

let test_edge_fd_path () =
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir fs ~cred (p "/d"));
  check_ok "ln" (Fs.symlink fs ~cred ~target:"/d" (p "/alias"));
  let fd =
    check_ok "open through symlink"
      (Fs.openfile fs ~cred (p "/alias/f") [ Fs.O_rdwr; Fs.O_creat ])
  in
  Alcotest.(check string) "fd path is canonical" "/d/f"
    (Path.to_string (check_ok "fd_path" (Fs.fd_path fs fd)))

let test_edge_bytes_accounting () =
  let fs = fresh () in
  let _, b0 = Fs.size_info fs in
  check_ok "w" (Fs.write_file fs ~cred (p "/f") (String.make 100 'x'));
  let _, b1 = Fs.size_info fs in
  Alcotest.(check int) "100 bytes tracked" 100 (b1 - b0);
  check_ok "shrink" (Fs.truncate fs ~cred (p "/f") 40);
  let _, b2 = Fs.size_info fs in
  Alcotest.(check int) "truncate releases" 40 (b2 - b0);
  check_ok "rm" (Fs.unlink fs ~cred (p "/f"));
  let _, b3 = Fs.size_info fs in
  Alcotest.(check int) "unlink releases all" 0 (b3 - b0)

let test_edge_xattr_permissions () =
  let fs = fresh () in
  check_ok "root 777" (Fs.chmod fs ~cred Path.root 0o777);
  check_ok "alice file" (Fs.write_file fs ~cred:alice (p "/af") "x");
  check_ok "alice chmod 644" (Fs.chmod fs ~cred:alice (p "/af") 0o644);
  check_err "bob cannot setxattr" Vfs.Errno.EACCES
    (Fs.setxattr fs ~cred:bob (p "/af") ~name:"k" ~value:"v");
  check_err "empty name invalid" Vfs.Errno.EINVAL
    (Fs.setxattr fs ~cred:alice (p "/af") ~name:"" ~value:"v")

let test_edge_acl_text_garbage () =
  Alcotest.(check bool) "garbage entry" true
    (Result.is_error (Vfs.Acl.of_text "user:banana:rwx"));
  Alcotest.(check bool) "bad perms" true
    (Result.is_error (Vfs.Acl.of_text "user:1:rwz"));
  Alcotest.(check bool) "comments skipped" true
    (Vfs.Acl.of_text "# just a comment\n" = Ok [])

let test_edge_eexist_without_write_perm () =
  (* Linux semantics: lookup precedes the write check, so mkdir of an
     existing name under an unwritable parent is EEXIST, not EACCES —
     what makes idempotent view entry work for tenants. *)
  let fs = fresh () in
  check_ok "mk" (Fs.mkdir fs ~cred (p "/ro"));
  check_ok "sub" (Fs.mkdir fs ~cred (p "/ro/existing"));
  check_ok "chmod 755" (Fs.chmod fs ~cred (p "/ro") 0o755);
  check_err "existing -> eexist" Vfs.Errno.EEXIST
    (Fs.mkdir fs ~cred:alice (p "/ro/existing"));
  check_err "new -> eacces" Vfs.Errno.EACCES (Fs.mkdir fs ~cred:alice (p "/ro/new"))

(* --- property-based tests ------------------------------------------------------------ *)

let path_gen =
  let comp = QCheck.Gen.oneofl [ "a"; "b"; "c"; "sw1"; "flows"; "x9" ] in
  QCheck.Gen.(map (fun l -> "/" ^ String.concat "/" l) (list_size (int_range 1 6) comp))

let prop_path_roundtrip =
  QCheck.Test.make ~name:"path parse/print roundtrip is stable" ~count:200
    (QCheck.make path_gen) (fun s ->
      match Path.of_string s with
      | Error _ -> false
      | Ok p1 -> (
        match Path.of_string (Path.to_string p1) with
        | Error _ -> false
        | Ok p2 -> Path.equal p1 p2))

let prop_write_read =
  QCheck.Test.make ~name:"write/read roundtrip of arbitrary bytes" ~count:100
    QCheck.(string_gen QCheck.Gen.char) (fun data ->
      let fs = fresh () in
      match Fs.write_file fs ~cred (p "/f") data with
      | Error _ -> false
      | Ok () -> Fs.read_file fs ~cred (p "/f") = Ok data)

let prop_rename_preserves =
  QCheck.Test.make ~name:"rename preserves content" ~count:100
    QCheck.(string_gen QCheck.Gen.printable) (fun data ->
      let fs = fresh () in
      ignore (Fs.write_file fs ~cred (p "/f") data);
      ignore (Fs.rename fs ~cred ~src:(p "/f") ~dst:(p "/g"));
      Fs.read_file fs ~cred (p "/g") = Ok data
      && not (Fs.exists fs ~cred (p "/f")))

let prop_object_count =
  QCheck.Test.make ~name:"size_info tracks object creation/removal" ~count:50
    QCheck.(int_range 1 20) (fun n ->
      let fs = fresh () in
      let before, _ = Fs.size_info fs in
      for i = 1 to n do
        ignore (Fs.mkdir fs ~cred (p (Printf.sprintf "/d%d" i)))
      done;
      let mid, _ = Fs.size_info fs in
      for i = 1 to n do
        ignore (Fs.rmdir fs ~cred (p (Printf.sprintf "/d%d" i)))
      done;
      let after, _ = Fs.size_info fs in
      mid = before + n && after = before)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_path_roundtrip; prop_write_read; prop_rename_preserves; prop_object_count ]

let () =
  Alcotest.run "vfs"
    [ ( "path",
        [ Alcotest.test_case "parse" `Quick test_path_parse;
          Alcotest.test_case "relatives" `Quick test_path_relatives;
          Alcotest.test_case "valid_name" `Quick test_path_valid_name ] );
      ( "perm-acl",
        [ Alcotest.test_case "mode bits" `Quick test_perm_check;
          Alcotest.test_case "mode strings" `Quick test_perm_string;
          Alcotest.test_case "acl grants" `Quick test_acl_check;
          Alcotest.test_case "acl mask" `Quick test_acl_mask;
          Alcotest.test_case "acl text roundtrip" `Quick test_acl_text_roundtrip;
          Alcotest.test_case "acl validation" `Quick test_acl_validate ] );
      ( "ops",
        [ Alcotest.test_case "mkdir/readdir" `Quick test_mkdir_and_readdir;
          Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
          Alcotest.test_case "write/read" `Quick test_file_write_read;
          Alcotest.test_case "create excl" `Quick test_create_excl;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename dirs" `Quick test_rename_dirs;
          Alcotest.test_case "symlink" `Quick test_symlink_readlink;
          Alcotest.test_case "symlink loop" `Quick test_symlink_loop;
          Alcotest.test_case "symlink traverse" `Quick test_symlink_dir_traverse;
          Alcotest.test_case "stat/lstat" `Quick test_stat_lstat;
          Alcotest.test_case "nlink" `Quick test_nlink ] );
      ( "security",
        [ Alcotest.test_case "permissions" `Quick test_permission_enforcement;
          Alcotest.test_case "chmod/chown" `Quick test_chmod_chown_rules;
          Alcotest.test_case "acl on fs" `Quick test_acl_on_fs;
          Alcotest.test_case "readonly" `Quick test_readonly;
          Alcotest.test_case "xattrs" `Quick test_xattrs ] );
      ( "fds",
        [ Alcotest.test_case "basic" `Quick test_fd_basic;
          Alcotest.test_case "flags" `Quick test_fd_flags ] );
      ( "hooks",
        [ Alcotest.test_case "mutation stream" `Quick test_mutation_stream;
          Alcotest.test_case "replay replicates" `Quick test_replay_replicates;
          Alcotest.test_case "replay idempotent" `Quick test_replay_idempotent;
          Alcotest.test_case "rmdir policy" `Quick test_rmdir_policy;
          Alcotest.test_case "symlink policy" `Quick test_symlink_policy ] );
      ( "cost",
        [ Alcotest.test_case "counting" `Quick test_cost_counting;
          Alcotest.test_case "suspension" `Quick test_cost_suspended ] );
      ( "traversal",
        [ Alcotest.test_case "walk" `Quick test_walk;
          Alcotest.test_case "tree" `Quick test_tree_rendering;
          Alcotest.test_case "fold accumulator" `Quick test_fold_accumulator;
          Alcotest.test_case "fold skip subtree" `Quick test_fold_skip_subtree;
          Alcotest.test_case "fold early stop" `Quick test_fold_early_stop;
          Alcotest.test_case "kind_of" `Quick test_kind_of;
          Alcotest.test_case "kind_of eacces vs enoent" `Quick
            test_kind_of_eacces_vs_enoent ] );
      ( "edge-cases",
        [ Alcotest.test_case "not-a-directory" `Quick test_edge_not_a_directory;
          Alcotest.test_case "append creates" `Quick test_edge_append_creates;
          Alcotest.test_case "fd path" `Quick test_edge_fd_path;
          Alcotest.test_case "byte accounting" `Quick test_edge_bytes_accounting;
          Alcotest.test_case "xattr permissions" `Quick test_edge_xattr_permissions;
          Alcotest.test_case "acl text garbage" `Quick test_edge_acl_text_garbage;
          Alcotest.test_case "eexist before eacces" `Quick
            test_edge_eexist_without_write_perm ] );
      "properties", qcheck_cases ]
