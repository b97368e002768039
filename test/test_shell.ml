(* Tests for the coreutils-over-VFS shell (paper §5.4), including the
   paper's literal one-liners. *)

module Fs = Vfs.Fs
module Path = Vfs.Path

let cred = Vfs.Cred.root

let p = Path.of_string_exn


let env () = Shell.Env.create (Fs.create ())

let run env line = Shell.Pipeline.run env line

let out env line =
  let r = run env line in
  if r.Shell.Pipeline.code <> 0 then
    Alcotest.failf "command failed: %s\n%s" line r.Shell.Pipeline.err;
  r.Shell.Pipeline.out

(* --- tokenizer -------------------------------------------------------------------- *)

let test_tokenizer () =
  let words s =
    match Shell.Pipeline.split_words s with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "plain" [ "ls"; "-l"; "/net" ] (words "ls -l /net");
  Alcotest.(check (list string)) "quotes" [ "echo"; "two words" ]
    (words "echo 'two words'");
  Alcotest.(check (list string)) "double quotes" [ "echo"; "a b" ] (words "echo \"a b\"");
  Alcotest.(check (list string)) "comment" [ "echo"; "x" ] (words "echo x # noise");
  Alcotest.(check (list string)) "empty" [] (words "   ");
  Alcotest.(check bool) "unterminated quote" true
    (Result.is_error (Shell.Pipeline.split_words "echo 'oops"))

let test_glob_matching () =
  Alcotest.(check bool) "star" true (Shell.Glob.matches ~pattern:"*.txt" "a.txt");
  Alcotest.(check bool) "star miss" false (Shell.Glob.matches ~pattern:"*.txt" "a.bin");
  Alcotest.(check bool) "question" true (Shell.Glob.matches ~pattern:"sw?" "sw1");
  Alcotest.(check bool) "question strict" false (Shell.Glob.matches ~pattern:"sw?" "sw12");
  Alcotest.(check bool) "middle star" true
    (Shell.Glob.matches ~pattern:"match.*" "match.tp_dst");
  Alcotest.(check bool) "exact" true (Shell.Glob.matches ~pattern:"peer" "peer");
  Alcotest.(check bool) "star empty" true (Shell.Glob.matches ~pattern:"a*" "a")

(* --- basic commands ------------------------------------------------------------------ *)

let test_echo_redirect_cat () =
  let e = env () in
  ignore (out e "mkdir /d");
  ignore (out e "echo hello world > /d/f");
  Alcotest.(check string) "cat" "hello world\n" (out e "cat /d/f");
  ignore (out e "echo more >> /d/f");
  Alcotest.(check string) "append" "hello world\nmore\n" (out e "cat /d/f");
  Alcotest.(check string) "echo -n" "flat" (out e "echo -n flat")

(* A stdin redirect that fails skips its command, as in bash. *)
let test_failed_stdin_redirect () =
  let e = env () in
  ignore (out e "mkdir /d");
  let r = run e "cat < /nope" in
  Alcotest.(check int) "exit 1" 1 r.Shell.Pipeline.code;
  Alcotest.(check string) "no output" "" r.Shell.Pipeline.out;
  Alcotest.(check string) "error" "yash: /nope: No such file or directory\n"
    r.Shell.Pipeline.err;
  ignore (run e "tee /d/t < /nope");
  Alcotest.(check bool) "command not run" false (Fs.exists e.Shell.Env.fs ~cred (p "/d/t"))

let test_ls () =
  let e = env () in
  ignore (out e "mkdir -p /net/switches/sw1");
  ignore (out e "mkdir /net/switches/sw2");
  ignore (out e "echo 1 > /net/switches/marker");
  Alcotest.(check string) "names" "marker\nsw1\nsw2\n" (out e "ls /net/switches");
  let long = out e "ls -l /net/switches" in
  Alcotest.(check bool) "long format has modes" true
    (String.length long > 10 && (long.[0] = 'd' || long.[0] = '-'));
  let r = run e "ls /nonexistent" in
  Alcotest.(check bool) "missing path fails" true (r.Shell.Pipeline.code <> 0)

let test_mkdir_rm () =
  let e = env () in
  ignore (out e "mkdir -p /a/b/c");
  Alcotest.(check string) "tree exists" "c\n" (out e "ls /a/b");
  let r = run e "rm /a" in
  Alcotest.(check bool) "rm dir without -r fails" true (r.Shell.Pipeline.code <> 0);
  ignore (out e "rm -r /a");
  Alcotest.(check bool) "gone" true ((run e "ls /a").Shell.Pipeline.code <> 0);
  Alcotest.(check int) "rm -f missing is fine" 0 (run e "rm -f /ghost").Shell.Pipeline.code

let test_cp_mv () =
  let e = env () in
  ignore (out e "mkdir -p /src/sub");
  ignore (out e "echo data > /src/f");
  ignore (out e "echo deep > /src/sub/g");
  ignore (out e "ln -s /src/f /src/link");
  ignore (out e "cp -r /src /dst");
  Alcotest.(check string) "file copied" "data\n" (out e "cat /dst/f");
  Alcotest.(check string) "subtree copied" "deep\n" (out e "cat /dst/sub/g");
  Alcotest.(check string) "symlink preserved" "/src/f\n" (out e "readlink /dst/link");
  ignore (out e "mv /dst/f /dst/renamed");
  Alcotest.(check string) "moved" "data\n" (out e "cat /dst/renamed");
  (* mv into an existing directory targets basename *)
  ignore (out e "mv /dst/renamed /src/sub");
  Alcotest.(check string) "into dir" "data\n" (out e "cat /src/sub/renamed")

let test_pipes () =
  let e = env () in
  ignore (out e "mkdir /d");
  ignore (out e "echo banana > /d/1");
  ignore (out e "echo apple > /d/2");
  ignore (out e "echo banana > /d/3");
  Alcotest.(check string) "cat | sort | uniq" "apple\nbanana\n"
    (out e "cat /d/1 /d/2 /d/3 | sort | uniq");
  Alcotest.(check string) "wc -l" "3\n" (out e "ls /d | wc -l");
  Alcotest.(check string) "head" "apple\n" (out e "cat /d/2 /d/1 | head -n 1");
  Alcotest.(check string) "tail" "banana\n" (out e "cat /d/2 /d/1 | tail -n 1");
  Alcotest.(check string) "cut" "b\n" (out e "echo a:b:c | cut -d : -f 2")

let test_grep () =
  let e = env () in
  ignore (out e "mkdir /logs");
  ignore (out e "echo error one > /logs/a");
  ignore (out e "echo all fine > /logs/b");
  ignore (out e "echo ERROR two > /logs/c");
  Alcotest.(check string) "grep file" "error one\n" (out e "grep error /logs/a");
  Alcotest.(check string) "grep -i across files" "/logs/a:error one\n/logs/c:ERROR two\n"
    (out e "grep -i error /logs/a /logs/b /logs/c");
  Alcotest.(check string) "grep -l" "/logs/a\n" (out e "grep -l error /logs/a /logs/b");
  Alcotest.(check string) "grep -c" "1\n" (out e "grep -c error /logs/a");
  Alcotest.(check string) "grep -v" "all fine\n" (out e "cat /logs/b | grep -v error");
  Alcotest.(check int) "no match exit code" 1
    (run e "grep nothing /logs/b").Shell.Pipeline.code;
  Alcotest.(check string) "grep -r" "/logs/a:error one\n"
    (out e "grep -r error /logs | grep -v ERROR")

let test_find () =
  let e = env () in
  ignore (out e "mkdir -p /net/switches/sw1/flows/ssh");
  ignore (out e "mkdir -p /net/switches/sw2/flows/web");
  ignore (out e "echo 22 > /net/switches/sw1/flows/ssh/match.tp_dst");
  ignore (out e "echo 80 > /net/switches/sw2/flows/web/match.tp_dst");
  let hits = out e "find /net -name match.tp_dst" in
  Alcotest.(check string) "find -name"
    "/net/switches/sw1/flows/ssh/match.tp_dst\n/net/switches/sw2/flows/web/match.tp_dst\n"
    hits;
  Alcotest.(check string) "find -type d -name" "/net/switches/sw1/flows/ssh\n"
    (out e "find /net -type d -name ssh");
  Alcotest.(check string) "maxdepth" "/net/switches\n"
    (out e "find /net -maxdepth 1 -name switches")

let test_find_exec_paper_oneliner () =
  (* The paper's §5.4 one-liner: find /net -name tp.dst -exec grep 22
     (our field files are named match.tp_dst). *)
  let e = env () in
  ignore (out e "mkdir -p /net/switches/sw1/flows/ssh");
  ignore (out e "mkdir -p /net/switches/sw1/flows/web");
  ignore (out e "echo 22 > /net/switches/sw1/flows/ssh/match.tp_dst");
  ignore (out e "echo 80 > /net/switches/sw1/flows/web/match.tp_dst");
  Alcotest.(check string) "flows affecting ssh traffic" "22\n"
    (out e "find /net -name match.tp_dst -exec grep 22")

let test_globbing () =
  let e = env () in
  ignore (out e "mkdir -p /net/switches/sw1/ports/port_1");
  ignore (out e "mkdir -p /net/switches/sw2/ports/port_1");
  ignore (out e "echo 0 > /net/switches/sw1/ports/port_1/config.port_down");
  ignore (out e "echo 1 > /net/switches/sw2/ports/port_1/config.port_down");
  Alcotest.(check string) "glob across switches" "0\n1\n"
    (out e "cat /net/switches/*/ports/port_1/config.port_down");
  Alcotest.(check string) "glob expansion in operands"
    "/net/switches/sw1 /net/switches/sw2\n"
    (out e "echo /net/switches/sw?")

let test_cd_pwd () =
  let e = env () in
  ignore (out e "mkdir -p /net/switches");
  Alcotest.(check string) "initial pwd" "/\n" (out e "pwd");
  ignore (out e "cd /net/switches");
  Alcotest.(check string) "pwd after cd" "/net/switches\n" (out e "pwd");
  ignore (out e "mkdir swX");
  Alcotest.(check bool) "relative mkdir" true
    (Fs.is_dir e.Shell.Env.fs ~cred (p "/net/switches/swX"));
  Alcotest.(check bool) "cd to missing fails" true
    ((run e "cd /void").Shell.Pipeline.code <> 0)

let test_chmod_stat_touch () =
  let e = env () in
  ignore (out e "touch /f");
  ignore (out e "chmod 600 /f");
  let st = out e "stat /f" in
  Alcotest.(check bool) "stat shows mode" true
    (String.length st > 0
    &&
    let has_0600 = ref false in
    String.iteri
      (fun i _ ->
        if i + 4 <= String.length st && String.sub st i 4 = "0600" then has_0600 := true)
      st;
    !has_0600);
  Alcotest.(check int) "touch existing ok" 0 (run e "touch /f").Shell.Pipeline.code

let test_sequencing () =
  let e = env () in
  Alcotest.(check string) "&& runs both" "a\nb\n" (out e "echo a && echo b");
  let r = run e "false && echo never" in
  Alcotest.(check string) "&& short circuits" "" r.Shell.Pipeline.out;
  Alcotest.(check string) "; runs regardless" "x\ny\n" (out e "echo x ; echo y")

let test_tee () =
  let e = env () in
  Alcotest.(check string) "tee passes through" "data\n" (out e "echo data | tee /copy");
  Alcotest.(check string) "tee wrote" "data\n" (out e "cat /copy")

let test_unknown_command () =
  let e = env () in
  let r = run e "frobnicate /net" in
  Alcotest.(check int) "127" 127 r.Shell.Pipeline.code

let test_run_script () =
  let e = env () in
  let script =
    "# static flow pusher, as a shell script (paper §8)\n\
     mkdir -p /net/switches/sw1/flows/fwd\n\
     echo 3 > /net/switches/sw1/flows/fwd/action.0.out\n\
     echo 100 > /net/switches/sw1/flows/fwd/priority\n\
     echo 1 > /net/switches/sw1/flows/fwd/version\n"
  in
  let r = Shell.Pipeline.run_script e script in
  Alcotest.(check int) "script ok" 0 r.Shell.Pipeline.code;
  Alcotest.(check string) "files written" "1\n"
    (out e "cat /net/switches/sw1/flows/fwd/version")

let test_facl_commands () =
  let e = env () in
  ignore (out e "mkdir -p /net/switches/sw1");
  ignore (out e "chmod 700 /net/switches/sw1");
  (* grant uid 101 read+exec via ACL, as an admin would with setfacl *)
  ignore (out e "setfacl -m user:101:r-x /net/switches/sw1");
  let shown = out e "getfacl /net/switches/sw1" in
  Alcotest.(check bool) "entry listed" true
    (let needle = "user:101:r-x" in
     let nl = String.length needle and hl = String.length shown in
     let rec at i = i + nl <= hl && (String.sub shown i nl = needle || at (i + 1)) in
     at 0);
  (* uid 101 can now traverse *)
  let tenant = Vfs.Cred.make ~uid:101 ~gid:101 () in
  Alcotest.(check bool) "acl grants access" true
    (Result.is_ok (Fs.readdir e.Shell.Env.fs ~cred:tenant (p "/net/switches/sw1")));
  (* and revoke *)
  ignore (out e "setfacl -x user:101 /net/switches/sw1");
  Alcotest.(check bool) "revoked" true
    (Fs.readdir e.Shell.Env.fs ~cred:tenant (p "/net/switches/sw1")
    = Error Vfs.Errno.EACCES);
  ignore (out e "setfacl -m user:102:rwx /net/switches/sw1");
  ignore (out e "setfacl -b /net/switches/sw1");
  Alcotest.(check string) "cleared acl has no named entries" ""
    (out e "getfacl /net/switches/sw1 | grep user:102 | cat")

let test_fattr_commands () =
  let e = env () in
  ignore (out e "mkdir -p /net/switches/sw1/flows");
  (* mark a subtree as requiring strict consistency (paper 5.1 + 6) *)
  ignore (out e "setfattr -n user.consistency -v strict /net/switches/sw1/flows");
  Alcotest.(check string) "read back"
    "user.consistency=\"strict\"\n"
    (out e "getfattr -n user.consistency /net/switches/sw1/flows");
  Alcotest.(check string) "listing" "user.consistency\n"
    (out e "getfattr /net/switches/sw1/flows");
  ignore (out e "setfattr -x user.consistency /net/switches/sw1/flows");
  Alcotest.(check bool) "removed" true
    ((run e "getfattr -n user.consistency /net/switches/sw1/flows").Shell.Pipeline.code
    <> 0)

let test_permissions_respected () =
  let e = env () in
  ignore (out e "mkdir -p /net/secret");
  ignore (out e "chmod 700 /net/secret");
  ignore (out e "echo classified > /net/secret/f");
  e.Shell.Env.cred <- Vfs.Cred.make ~uid:1000 ~gid:1000 ();
  let r = run e "cat /net/secret/f" in
  Alcotest.(check bool) "denied" true (r.Shell.Pipeline.code <> 0);
  Alcotest.(check bool) "says permission denied" true
    (let err = r.Shell.Pipeline.err in
     let has = ref false in
     String.iteri
       (fun i _ ->
         if
           i + 10 <= String.length err
           && String.sub err i 10 = "Permission"
         then has := true)
       err;
     !has)

(* A write the credential may not make fails the command, as in bash:
   [<cmd>: <path>: <errno>] on stderr and exit 1. [tee] still passes
   its input through. *)
let test_denied_writes () =
  let e = env () in
  ignore (out e "mkdir -p /ro");
  e.Shell.Env.cred <- Vfs.Cred.make ~uid:1000 ~gid:1000 ();
  let check line ~out ~err =
    let r = run e line in
    Alcotest.(check (triple int string string)) line (1, out, err)
      (r.Shell.Pipeline.code, r.Shell.Pipeline.out, r.Shell.Pipeline.err)
  in
  check "echo x | tee /ro/f" ~out:"x\n" ~err:"tee: /ro/f: Permission denied\n";
  check "echo x > /ro/f" ~out:"" ~err:"yash: /ro/f: Permission denied\n";
  check "echo x >> /ro/f" ~out:"" ~err:"yash: /ro/f: Permission denied\n";
  e.Shell.Env.cred <- cred;
  Alcotest.(check bool) "nothing written" false
    (Fs.exists e.Shell.Env.fs ~cred (p "/ro/f"))

(* --- properties ----------------------------------------------------------- *)

let word_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '-'; '/'; '.'; '*' ]) (int_range 1 10))

let prop_tokenizer_quoting =
  QCheck.Test.make ~name:"single-quoting survives tokenization" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 8) word_gen))
    (fun words ->
      let line = String.concat " " (List.map (fun w -> "'" ^ w ^ "'") words) in
      Shell.Pipeline.split_words line = Ok words)

let prop_glob_star_reflexive =
  QCheck.Test.make ~name:"every name matches itself and the * pattern" ~count:300
    (QCheck.make word_gen) (fun name ->
      Shell.Glob.matches ~pattern:name name && Shell.Glob.matches ~pattern:"*" name)

let prop_echo_cat_roundtrip =
  QCheck.Test.make ~name:"echo > file; cat file roundtrips words" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 5)
           (* a leading '-' would parse as an echo flag *)
           (map (fun w -> "w" ^ w) word_gen)))
    (fun words ->
      (* '*' can glob-expand; quote everything *)
      let e = env () in
      let quoted = String.concat " " (List.map (fun w -> "'" ^ w ^ "'") words) in
      let w = run e (Printf.sprintf "echo %s > /f" quoted) in
      let r = run e "cat /f" in
      w.Shell.Pipeline.code = 0
      && r.Shell.Pipeline.out = String.concat " " words ^ "\n")

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tokenizer_quoting; prop_glob_star_reflexive; prop_echo_cat_roundtrip ]

let () =
  Alcotest.run "shell"
    [ ( "parsing",
        [ Alcotest.test_case "tokenizer" `Quick test_tokenizer;
          Alcotest.test_case "glob matching" `Quick test_glob_matching ] );
      ( "commands",
        [ Alcotest.test_case "echo/redirect/cat" `Quick test_echo_redirect_cat;
          Alcotest.test_case "failed stdin redirect" `Quick test_failed_stdin_redirect;
          Alcotest.test_case "ls" `Quick test_ls;
          Alcotest.test_case "mkdir/rm" `Quick test_mkdir_rm;
          Alcotest.test_case "cp/mv" `Quick test_cp_mv;
          Alcotest.test_case "chmod/stat/touch" `Quick test_chmod_stat_touch;
          Alcotest.test_case "cd/pwd" `Quick test_cd_pwd;
          Alcotest.test_case "unknown command" `Quick test_unknown_command ] );
      ( "pipelines",
        [ Alcotest.test_case "pipes" `Quick test_pipes;
          Alcotest.test_case "grep" `Quick test_grep;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "find -exec (paper one-liner)" `Quick
            test_find_exec_paper_oneliner;
          Alcotest.test_case "globbing" `Quick test_globbing;
          Alcotest.test_case "sequencing" `Quick test_sequencing;
          Alcotest.test_case "tee" `Quick test_tee;
          Alcotest.test_case "scripts" `Quick test_run_script ] );
      ( "security",
        [ Alcotest.test_case "permissions respected" `Quick test_permissions_respected;
          Alcotest.test_case "denied tee and redirect" `Quick test_denied_writes;
          Alcotest.test_case "getfacl/setfacl" `Quick test_facl_commands;
          Alcotest.test_case "getfattr/setfattr" `Quick test_fattr_commands ] );
      "properties", qcheck_cases ]
