module Fs = Vfs.Fs
module Path = Vfs.Path

type output = { code : int; out : string; err : string }

let ok out = { code = 0; out; err = "" }

let fail ?(code = 1) err = { code; out = ""; err }

let errno cmd path e =
  fail (Printf.sprintf "%s: %s: %s\n" cmd (Path.to_string path) (Vfs.Errno.message e))

let flags_and_args argv =
  (* Split leading dash-flags from operands; "--" ends flag parsing. *)
  let rec go flags = function
    | "--" :: rest -> List.rev flags, rest
    | arg :: rest when String.length arg > 1 && arg.[0] = '-' ->
      go (arg :: flags) rest
    | rest -> List.rev flags, rest
  in
  go [] argv

let has flag flags = List.mem flag flags

let lines s =
  if s = "" then []
  else begin
    let l = String.split_on_char '\n' s in
    match List.rev l with "" :: rest -> List.rev rest | _ -> l
  end

let unlines l = match l with [] -> "" | _ -> String.concat "\n" l ^ "\n"

(* --- individual commands ------------------------------------------------------ *)

let kind_char = function
  | Fs.Dir -> 'd'
  | Fs.File -> '-'
  | Fs.Symlink -> 'l'

let ls env ~flags ~args =
  let long = has "-l" flags || has "-la" flags || has "-al" flags in
  let paths = if args = [] then [ "." ] else args in
  let buf = Buffer.create 256 in
  let err = Buffer.create 0 in
  let code = ref 0 in
  let entry_line path name (st : Fs.stat) =
    if long then begin
      let suffix =
        if st.kind = Fs.Symlink then
          match Fs.readlink env.Env.fs ~cred:env.Env.cred path with
          | Ok target -> " -> " ^ target
          | Error _ -> ""
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %2d %4d %4d %6d %s%s\n"
           (Vfs.Perm.to_string ~kind:(kind_char st.kind) st.mode)
           st.nlink st.uid st.gid st.size name suffix)
    end
    else Buffer.add_string buf (name ^ "\n")
  in
  List.iter
    (fun arg ->
      let path = Env.resolve env arg in
      match Fs.lstat env.Env.fs ~cred:env.Env.cred path with
      | Error e ->
        code := 1;
        Buffer.add_string err
          (Printf.sprintf "ls: %s: %s\n" arg (Vfs.Errno.message e))
      | Ok st when st.kind <> Fs.Dir -> entry_line path arg st
      | Ok _ -> (
        match Fs.readdir env.Env.fs ~cred:env.Env.cred path with
        | Error e ->
          code := 1;
          Buffer.add_string err
            (Printf.sprintf "ls: %s: %s\n" arg (Vfs.Errno.message e))
        | Ok names ->
          List.iter
            (fun name ->
              let child = Path.child path name in
              match Fs.lstat env.Env.fs ~cred:env.Env.cred child with
              | Ok st -> entry_line child name st
              | Error _ -> ())
            names))
    paths;
  { code = !code; out = Buffer.contents buf; err = Buffer.contents err }

let cat env ~args ~stdin =
  if args = [] then ok stdin
  else begin
    let buf = Buffer.create 256 in
    let err = Buffer.create 0 in
    let code = ref 0 in
    List.iter
      (fun arg ->
        match Fs.read_file env.Env.fs ~cred:env.Env.cred (Env.resolve env arg) with
        | Ok data -> Buffer.add_string buf data
        | Error e ->
          code := 1;
          Buffer.add_string err
            (Printf.sprintf "cat: %s: %s\n" arg (Vfs.Errno.message e)))
      args;
    { code = !code; out = Buffer.contents buf; err = Buffer.contents err }
  end

let echo ~flags ~args =
  let newline = not (has "-n" flags) in
  ok (String.concat " " args ^ if newline then "\n" else "")

let mkdir env ~flags ~args =
  let make fs ~cred p =
    if has "-p" flags then Fs.mkdir_p fs ~cred p else Fs.mkdir fs ~cred p
  in
  List.fold_left
    (fun acc arg ->
      if acc.code <> 0 then acc
      else
        match make env.Env.fs ~cred:env.Env.cred (Env.resolve env arg) with
        | Ok () -> acc
        | Error e -> errno "mkdir" (Env.resolve env arg) e)
    (ok "") args

let rmdir env ~args =
  List.fold_left
    (fun acc arg ->
      if acc.code <> 0 then acc
      else
        match Fs.rmdir env.Env.fs ~cred:env.Env.cred (Env.resolve env arg) with
        | Ok () -> acc
        | Error e -> errno "rmdir" (Env.resolve env arg) e)
    (ok "") args

let rm env ~flags ~args =
  let recursive = has "-r" flags || has "-rf" flags || has "-fr" flags in
  let force = has "-f" flags || has "-rf" flags || has "-fr" flags in
  List.fold_left
    (fun acc arg ->
      if acc.code <> 0 then acc
      else begin
        let path = Env.resolve env arg in
        let result =
          match Fs.lstat env.Env.fs ~cred:env.Env.cred path with
          | Error e -> Error e
          | Ok { kind = Fs.Dir; _ } ->
            if recursive then Fs.rmdir ~recursive:true env.Env.fs ~cred:env.Env.cred path
            else Error Vfs.Errno.EISDIR
          | Ok _ -> Fs.unlink env.Env.fs ~cred:env.Env.cred path
        in
        match result with
        | Ok () -> acc
        | Error Vfs.Errno.ENOENT when force -> acc
        | Error e -> errno "rm" path e
      end)
    (ok "") args

let ln env ~flags ~args =
  if not (has "-s" flags) then fail "ln: only symbolic links (-s) are supported\n"
  else
    match args with
    | [ target; linkname ] -> (
      match
        Fs.symlink env.Env.fs ~cred:env.Env.cred ~target (Env.resolve env linkname)
      with
      | Ok () -> ok ""
      | Error e -> errno "ln" (Env.resolve env linkname) e)
    | _ -> fail "usage: ln -s TARGET LINK\n"

let touch env ~args =
  List.fold_left
    (fun acc arg ->
      if acc.code <> 0 then acc
      else begin
        let path = Env.resolve env arg in
        if Fs.exists env.Env.fs ~cred:env.Env.cred path then acc
        else
          match Fs.create_file env.Env.fs ~cred:env.Env.cred path with
          | Ok () -> acc
          | Error e -> errno "touch" path e
      end)
    (ok "") args

(* Recursive copy preserving symlinks; file contents are copied whole. *)
let rec copy_object env src dst =
  let fs = env.Env.fs
  and cred = env.Env.cred in
  match Fs.lstat fs ~cred src with
  | Error e -> Error e
  | Ok { kind = Fs.Symlink; _ } -> (
    match Fs.readlink fs ~cred src with
    | Error e -> Error e
    | Ok target -> Fs.symlink fs ~cred ~target dst)
  | Ok { kind = Fs.File; _ } -> (
    match Fs.read_file fs ~cred src with
    | Error e -> Error e
    | Ok data -> Fs.write_file fs ~cred dst data)
  | Ok { kind = Fs.Dir; _ } -> (
    let made =
      match Fs.mkdir fs ~cred dst with
      | Ok () | Error Vfs.Errno.EEXIST -> Ok ()
      | Error e -> Error e
    in
    match made with
    | Error e -> Error e
    | Ok () -> (
      match Fs.readdir fs ~cred src with
      | Error e -> Error e
      | Ok names ->
        List.fold_left
          (fun acc name ->
            match acc with
            | Error _ as e -> e
            | Ok () -> copy_object env (Path.child src name) (Path.child dst name))
          (Ok ()) names))

let dest_for env src dst_arg =
  (* cp/mv semantics: an existing directory destination receives the
     source's basename inside it. *)
  let dst = Env.resolve env dst_arg in
  if Fs.is_dir env.Env.fs ~cred:env.Env.cred dst then
    match Path.basename src with
    | Some base -> Path.child dst base
    | None -> dst
  else dst

let cp env ~flags ~args =
  match args with
  | [ src_arg; dst_arg ] -> (
    let src = Env.resolve env src_arg in
    let dst = dest_for env src dst_arg in
    let is_dir = Fs.is_dir env.Env.fs ~cred:env.Env.cred src in
    if is_dir && not (has "-r" flags) then
      fail (Printf.sprintf "cp: %s is a directory (use -r)\n" src_arg)
    else
      match copy_object env src dst with
      | Ok () -> ok ""
      | Error e -> errno "cp" src e)
  | _ -> fail "usage: cp [-r] SRC DST\n"

let mv env ~args =
  match args with
  | [ src_arg; dst_arg ] -> (
    let src = Env.resolve env src_arg in
    let dst = dest_for env src dst_arg in
    match Fs.rename env.Env.fs ~cred:env.Env.cred ~src ~dst with
    | Ok () -> ok ""
    | Error e -> errno "mv" src e)
  | _ -> fail "usage: mv SRC DST\n"

let stat_cmd env ~args =
  let buf = Buffer.create 128 in
  let code = ref 0 in
  let err = Buffer.create 0 in
  List.iter
    (fun arg ->
      let path = Env.resolve env arg in
      match Fs.lstat env.Env.fs ~cred:env.Env.cred path with
      | Error e ->
        code := 1;
        Buffer.add_string err (Printf.sprintf "stat: %s: %s\n" arg (Vfs.Errno.message e))
      | Ok st ->
        Buffer.add_string buf
          (Printf.sprintf "  File: %s\n  Size: %d  Inode: %d  Links: %d\nAccess: (%04o/%s)  Uid: %d  Gid: %d\nModify: %.3f\n"
             (Path.to_string path) st.size st.ino st.nlink st.mode
             (Vfs.Perm.to_string ~kind:(kind_char st.kind) st.mode)
             st.uid st.gid st.mtime))
    args;
  { code = !code; out = Buffer.contents buf; err = Buffer.contents err }

let readlink_cmd env ~args =
  match args with
  | [ arg ] -> (
    match Fs.readlink env.Env.fs ~cred:env.Env.cred (Env.resolve env arg) with
    | Ok target -> ok (target ^ "\n")
    | Error e -> errno "readlink" (Env.resolve env arg) e)
  | _ -> fail "usage: readlink PATH\n"

let chmod env ~args =
  match args with
  | [ mode_s; arg ] -> (
    match int_of_string_opt ("0o" ^ mode_s) with
    | None -> fail (Printf.sprintf "chmod: invalid mode %S\n" mode_s)
    | Some mode -> (
      match Fs.chmod env.Env.fs ~cred:env.Env.cred (Env.resolve env arg) mode with
      | Ok () -> ok ""
      | Error e -> errno "chmod" (Env.resolve env arg) e))
  | _ -> fail "usage: chmod MODE PATH\n"

let tree env ~args =
  let arg = match args with a :: _ -> a | [] -> "." in
  match Fs.tree env.Env.fs ~cred:env.Env.cred (Env.resolve env arg) with
  | Ok text -> ok text
  | Error e -> errno "tree" (Env.resolve env arg) e

(* --- find ----------------------------------------------------------------------- *)

type find_opts = {
  name_pat : string option;
  typ : Fs.kind option;
  maxdepth : int option;
  exec : string list option; (* template containing "{}" *)
}

let parse_find_args args =
  let rec go opts paths = function
    | [] -> Ok (opts, List.rev paths)
    | "-name" :: pat :: rest -> go { opts with name_pat = Some pat } paths rest
    | "-type" :: t :: rest -> (
      match t with
      | "f" -> go { opts with typ = Some Fs.File } paths rest
      | "d" -> go { opts with typ = Some Fs.Dir } paths rest
      | "l" -> go { opts with typ = Some Fs.Symlink } paths rest
      | _ -> Error (Printf.sprintf "find: unknown type %S" t))
    | "-maxdepth" :: n :: rest -> (
      match int_of_string_opt n with
      | Some d -> go { opts with maxdepth = Some d } paths rest
      | None -> Error (Printf.sprintf "find: bad maxdepth %S" n))
    | "-exec" :: rest ->
      let rec take acc = function
        | ";" :: tail -> Ok (List.rev acc, tail)
        | [] -> Ok (List.rev acc, []) (* tolerate a missing ';' *)
        | a :: tail -> take (a :: acc) tail
      in
      (match take [] rest with
      | Ok (cmd, tail) -> go { opts with exec = Some cmd } paths tail
      | Error _ as e -> e)
    | arg :: rest when arg <> "" && arg.[0] <> '-' -> go opts (arg :: paths) rest
    | arg :: _ -> Error (Printf.sprintf "find: unknown predicate %S" arg)
  in
  go { name_pat = None; typ = None; maxdepth = None; exec = None } [] args

let find env ~args ~run_exec =
  match parse_find_args args with
  | Error e -> fail (e ^ "\n")
  | Ok (opts, paths) ->
    let roots = if paths = [] then [ "." ] else paths in
    let buf = Buffer.create 256 in
    let code = ref 0 in
    let err = Buffer.create 0 in
    List.iter
      (fun arg ->
        let rootp = Env.resolve env arg in
        let rootdepth = List.length (Path.components rootp) in
        match
          Fs.fold env.Env.fs ~cred:env.Env.cred rootp ~init:()
            (fun () path st ->
              let depth = List.length (Path.components path) - rootdepth in
              let depth_ok =
                match opts.maxdepth with Some d -> depth <= d | None -> true
              in
              let name_ok =
                match opts.name_pat, Path.basename path with
                | Some pat, Some base -> Glob.matches ~pattern:pat base
                | Some _, None -> false
                | None, _ -> true
              in
              let type_ok =
                match opts.typ with Some k -> st.Fs.kind = k | None -> true
              in
              if depth_ok && name_ok && type_ok then begin
                match opts.exec with
                | None -> Buffer.add_string buf (Path.to_string path ^ "\n")
                | Some template ->
                  let argv =
                    List.map
                      (fun a -> if a = "{}" then Path.to_string path else a)
                      template
                  in
                  (* The paper's own example omits {}; append the path. *)
                  let argv =
                    if List.mem "{}" template then argv
                    else argv @ [ Path.to_string path ]
                  in
                  let r = run_exec argv in
                  Buffer.add_string buf r
              end;
              (* Prune instead of filtering: below maxdepth nothing can
                 match, so don't even visit it. *)
              let action =
                match opts.maxdepth with
                | Some d when depth >= d -> `Skip_subtree
                | Some _ | None -> `Continue
              in
              ((), action))
        with
        | Ok () -> ()
        | Error e ->
          code := 1;
          Buffer.add_string err
            (Printf.sprintf "find: %s: %s\n" arg (Vfs.Errno.message e)))
      roots;
    { code = !code; out = Buffer.contents buf; err = Buffer.contents err }

(* --- grep ------------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle
  and hl = String.length hay in
  if nl = 0 then true
  else begin
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  end

let grep env ~flags ~args ~stdin =
  let recursive = has "-r" flags in
  let invert = has "-v" flags in
  let list_only = has "-l" flags in
  let count_only = has "-c" flags in
  let fold_case = has "-i" flags in
  match args with
  | [] -> fail "usage: grep [-rvlci] PATTERN [FILE...]\n"
  | pattern :: files ->
    let pattern = if fold_case then String.lowercase_ascii pattern else pattern in
    let match_line line =
      let line = if fold_case then String.lowercase_ascii line else line in
      contains ~needle:pattern line <> invert
    in
    let buf = Buffer.create 256 in
    let matched_any = ref false in
    let grep_content ~label content =
      let hits = List.filter match_line (lines content) in
      if hits <> [] then matched_any := true;
      if count_only then
        Buffer.add_string buf
          (match label with
          | Some l -> Printf.sprintf "%s:%d\n" l (List.length hits)
          | None -> Printf.sprintf "%d\n" (List.length hits))
      else if list_only then begin
        match label with
        | Some l when hits <> [] -> Buffer.add_string buf (l ^ "\n")
        | _ -> ()
      end
      else
        List.iter
          (fun line ->
            Buffer.add_string buf
              (match label with
              | Some l -> Printf.sprintf "%s:%s\n" l line
              | None -> line ^ "\n"))
          hits
    in
    if files = [] then begin
      grep_content ~label:None stdin;
      { code = (if !matched_any then 0 else 1); out = Buffer.contents buf; err = "" }
    end
    else begin
      let err = Buffer.create 0 in
      let rec one arg path =
        match Fs.lstat env.Env.fs ~cred:env.Env.cred path with
        | Error e ->
          Buffer.add_string err
            (Printf.sprintf "grep: %s: %s\n" arg (Vfs.Errno.message e))
        | Ok { kind = Fs.Dir; _ } when recursive -> (
          match Fs.readdir env.Env.fs ~cred:env.Env.cred path with
          | Ok names ->
            List.iter
              (fun n ->
                one (arg ^ "/" ^ n) (Path.child path n))
              names
          | Error _ -> ())
        | Ok { kind = Fs.Dir; _ } ->
          Buffer.add_string err (Printf.sprintf "grep: %s: is a directory\n" arg)
        | Ok _ -> (
          match Fs.read_file env.Env.fs ~cred:env.Env.cred path with
          | Ok content ->
            let label = if List.length files > 1 || recursive then Some arg else None in
            grep_content ~label content
          | Error _ -> ())
      in
      List.iter (fun arg -> one arg (Env.resolve env arg)) files;
      { code = (if !matched_any then 0 else 1);
        out = Buffer.contents buf;
        err = Buffer.contents err }
    end

(* --- text utilities ---------------------------------------------------------------- *)

let wc ~flags ~stdin =
  let ls = lines stdin in
  if has "-l" flags then ok (Printf.sprintf "%d\n" (List.length ls))
  else if has "-c" flags then ok (Printf.sprintf "%d\n" (String.length stdin))
  else
    let words =
      List.fold_left
        (fun acc line ->
          acc
          + (String.split_on_char ' ' line |> List.filter (fun w -> w <> "") |> List.length))
        0 ls
    in
    ok (Printf.sprintf "%d %d %d\n" (List.length ls) words (String.length stdin))

let head_tail ~first ~flags ~stdin =
  let n =
    let rec find = function
      | "-n" :: v :: _ -> int_of_string_opt v
      | _ :: rest -> find rest
      | [] -> None
    in
    Option.value (find flags) ~default:10
  in
  let ls = lines stdin in
  let keep =
    if first then List.filteri (fun i _ -> i < n) ls
    else begin
      let total = List.length ls in
      List.filteri (fun i _ -> i >= total - n) ls
    end
  in
  ok (unlines keep)

let sort_cmd ~flags ~stdin =
  let ls = List.sort String.compare (lines stdin) in
  let ls = if has "-r" flags then List.rev ls else ls in
  let ls = if has "-u" flags then List.sort_uniq String.compare ls else ls in
  ok (unlines ls)

let uniq ~flags ~stdin =
  let rec dedup = function
    | a :: b :: rest when a = b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  let ls = dedup (lines stdin) in
  ignore flags;
  ok (unlines ls)

let cut ~flags ~args ~stdin =
  let delim =
    let rec find = function
      | "-d" :: v :: _ when String.length v = 1 -> Some v.[0]
      | _ :: rest -> find rest
      | [] -> None
    in
    Option.value (find (flags @ args)) ~default:'\t'
  in
  let field =
    let rec find = function
      | "-f" :: v :: _ -> int_of_string_opt v
      | _ :: rest -> find rest
      | [] -> None
    in
    find (flags @ args)
  in
  match field with
  | None -> fail "usage: cut -d C -f N\n"
  | Some f ->
    let pick line =
      match List.nth_opt (String.split_on_char delim line) (f - 1) with
      | Some v -> v
      | None -> line
    in
    ok (unlines (List.map pick (lines stdin)))

(* --- ACLs and xattrs (paper 5.1) ---------------------------------------------- *)

let getfacl env ~args =
  let buf = Buffer.create 128 in
  let err = Buffer.create 0 in
  let code = ref 0 in
  List.iter
    (fun arg ->
      let path = Env.resolve env arg in
      match
        ( Fs.stat env.Env.fs ~cred:env.Env.cred path,
          Fs.get_acl env.Env.fs ~cred:env.Env.cred path )
      with
      | Ok st, Ok acl ->
        Buffer.add_string buf (Printf.sprintf "# file: %s\n# owner: %d\n# group: %d\n" (Path.to_string path) st.uid st.gid);
        Buffer.add_string buf (Vfs.Acl.to_text ~mode:st.mode acl);
        Buffer.add_char buf '\n'
      | Error e, _ | _, Error e ->
        code := 1;
        Buffer.add_string err
          (Printf.sprintf "getfacl: %s: %s\n" arg (Vfs.Errno.message e)))
    args;
  { code = !code; out = Buffer.contents buf; err = Buffer.contents err }

(* setfacl -m ENTRY PATH | -x TAG PATH | -b PATH; the mask is recomputed
   as the union of group-class entries, as setfacl(1) does. *)
let setfacl env ~args =
  let with_acl path f =
    match Fs.get_acl env.Env.fs ~cred:env.Env.cred path with
    | Error e -> errno "setfacl" path e
    | Ok acl -> (
      match f acl with
      | Error msg -> fail (Printf.sprintf "setfacl: %s\n" msg)
      | Ok acl -> (
        let acl =
          (* recompute the mask over named users/groups + owning group *)
          let group_class =
            List.filter_map
              (fun (e : Vfs.Acl.entry) ->
                match e.tag with
                | Vfs.Acl.User _ | Vfs.Acl.Group _ | Vfs.Acl.Group_obj ->
                  Some e.perms
                | _ -> None)
              acl
          in
          let has_named =
            List.exists
              (fun (e : Vfs.Acl.entry) ->
                match e.tag with Vfs.Acl.User _ | Vfs.Acl.Group _ -> true | _ -> false)
              acl
          in
          if has_named then
            Vfs.Acl.add acl
              { Vfs.Acl.tag = Vfs.Acl.Mask;
                perms = List.fold_left ( lor ) 0 group_class }
          else Vfs.Acl.remove acl Vfs.Acl.Mask
        in
        match Fs.set_acl env.Env.fs ~cred:env.Env.cred path acl with
        | Ok () -> ok ""
        | Error e -> errno "setfacl" path e))
  in
  match args with
  | [ "-m"; entry; target ] ->
    with_acl (Env.resolve env target) (fun acl ->
        Result.map
          (fun entries -> List.fold_left Vfs.Acl.add acl entries)
          (Vfs.Acl.of_text entry))
  | [ "-x"; spec; target ] -> (
    let tag =
      match String.split_on_char ':' spec with
      | [ "user"; id ] | [ "u"; id ] ->
        Option.map (fun i -> Vfs.Acl.User i) (int_of_string_opt id)
      | [ "group"; id ] | [ "g"; id ] ->
        Option.map (fun i -> Vfs.Acl.Group i) (int_of_string_opt id)
      | _ -> None
    in
    match tag with
    | None -> fail (Printf.sprintf "setfacl: bad tag %S\n" spec)
    | Some tag ->
      with_acl (Env.resolve env target) (fun acl -> Ok (Vfs.Acl.remove acl tag)))
  | [ "-b"; target ] -> (
    let path = Env.resolve env target in
    match Fs.set_acl env.Env.fs ~cred:env.Env.cred path Vfs.Acl.empty with
    | Ok () -> ok ""
    | Error e -> errno "setfacl" path e)
  | _ -> fail "usage: setfacl -m user:UID:rwx PATH | -x user:UID PATH | -b PATH\n"

let getfattr env ~flags ~args =
  let name =
    let rec find = function
      | "-n" :: v :: _ -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find (flags @ args)
  in
  let targets = List.filter (fun a -> a <> "-n" && Some a <> name) args in
  let buf = Buffer.create 64 in
  let err = Buffer.create 0 in
  let code = ref 0 in
  List.iter
    (fun arg ->
      let path = Env.resolve env arg in
      match name with
      | Some n -> (
        match Fs.getxattr env.Env.fs ~cred:env.Env.cred path ~name:n with
        | Ok v -> Buffer.add_string buf (Printf.sprintf "%s=\"%s\"\n" n v)
        | Error e ->
          code := 1;
          Buffer.add_string err (Printf.sprintf "getfattr: %s: %s\n" arg (Vfs.Errno.message e)))
      | None -> (
        match Fs.listxattr env.Env.fs ~cred:env.Env.cred path with
        | Ok names -> List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) names
        | Error e ->
          code := 1;
          Buffer.add_string err (Printf.sprintf "getfattr: %s: %s\n" arg (Vfs.Errno.message e))))
    targets;
  { code = !code; out = Buffer.contents buf; err = Buffer.contents err }

let setfattr env ~args =
  match args with
  | [ "-n"; name; "-v"; value; target ] -> (
    let path = Env.resolve env target in
    match Fs.setxattr env.Env.fs ~cred:env.Env.cred path ~name ~value with
    | Ok () -> ok ""
    | Error e -> errno "setfattr" path e)
  | [ "-x"; name; target ] -> (
    let path = Env.resolve env target in
    match Fs.removexattr env.Env.fs ~cred:env.Env.cred path ~name with
    | Ok () -> ok ""
    | Error e -> errno "setfattr" path e)
  | _ -> fail "usage: setfattr -n NAME -v VALUE PATH | -x NAME PATH\n"

let tee env ~args ~stdin =
  let err = Buffer.create 0 in
  List.iter
    (fun arg ->
      match Fs.write_file env.Env.fs ~cred:env.Env.cred (Env.resolve env arg) stdin with
      | Ok () -> ()
      | Error e ->
        Buffer.add_string err (Printf.sprintf "tee: %s: %s\n" arg (Vfs.Errno.message e)))
    args;
  { code = (if Buffer.length err = 0 then 0 else 1); out = stdin; err = Buffer.contents err }

(* --- dispatch ----------------------------------------------------------------------- *)

let known =
  [ "cat"; "cd"; "chmod"; "cp"; "echo"; "false"; "find"; "getfacl";
    "getfattr"; "grep"; "head"; "ln"; "ls"; "mkdir"; "mv"; "pwd"; "readlink";
    "rm"; "rmdir"; "setfacl"; "setfattr"; "sort"; "stat"; "tail"; "tee";
    "touch"; "tree"; "true"; "uniq"; "wc"; "cut" ]
  |> List.sort String.compare

let rec exec env ~argv ~stdin =
  match argv with
  | [] -> ok stdin
  | cmd :: rest -> (
    let flags, args = flags_and_args rest in
    match cmd with
    | "ls" -> ls env ~flags ~args
    | "cat" -> cat env ~args ~stdin
    | "echo" -> echo ~flags ~args
    | "mkdir" -> mkdir env ~flags ~args
    | "rmdir" -> rmdir env ~args
    | "rm" -> rm env ~flags ~args
    | "ln" -> ln env ~flags ~args
    | "cp" -> cp env ~flags ~args
    | "mv" -> mv env ~args
    | "touch" -> touch env ~args
    | "stat" -> stat_cmd env ~args
    | "readlink" -> readlink_cmd env ~args
    | "chmod" -> chmod env ~args
    | "tree" -> tree env ~args
    | "pwd" -> ok (Path.to_string env.Env.cwd ^ "\n")
    | "cd" -> (
      match args with
      | [] ->
        env.Env.cwd <- Path.root;
        ok ""
      | arg :: _ ->
        let path = Env.resolve env arg in
        if Fs.is_dir env.Env.fs ~cred:env.Env.cred path then begin
          env.Env.cwd <- path;
          ok ""
        end
        else fail (Printf.sprintf "cd: %s: no such directory\n" arg))
    | "find" ->
      find env ~args:rest ~run_exec:(fun argv ->
          (exec env ~argv ~stdin:"").out)
    | "grep" -> grep env ~flags ~args ~stdin
    | "wc" -> wc ~flags ~stdin
    | "head" -> head_tail ~first:true ~flags:rest ~stdin
    | "tail" -> head_tail ~first:false ~flags:rest ~stdin
    | "sort" -> sort_cmd ~flags ~stdin
    | "uniq" -> uniq ~flags ~stdin
    | "cut" -> cut ~flags ~args ~stdin
    | "tee" -> tee env ~args ~stdin
    | "getfacl" -> getfacl env ~args
    | "setfacl" -> setfacl env ~args:rest
    | "getfattr" -> getfattr env ~flags ~args
    | "setfattr" -> setfattr env ~args:rest
    | "true" -> ok ""
    | "false" -> fail ~code:1 ""
    | _ -> fail ~code:127 (Printf.sprintf "%s: command not found\n" cmd))
