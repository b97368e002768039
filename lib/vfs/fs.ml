type kind = Dir | File | Symlink

type stat = {
  ino : int;
  kind : kind;
  mode : int;
  uid : int;
  gid : int;
  nlink : int;
  size : int;
  atime : float;
  mtime : float;
  ctime : float;
}

type file_data = { mutable bytes : Bytes.t; mutable len : int }

type node = {
  ino : int;
  mutable mode : int;
  mutable uid : int;
  mutable gid : int;
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
  mutable xattrs : (string * string) list;
  mutable acl : Acl.t;
  mutable payload : payload;
  mutable dead : bool; (* unlinked: a held directory handle answers ENOENT *)
}

and payload =
  | P_dir of (string, node) Hashtbl.t
  | P_file of file_data
  | P_symlink of string

type open_file = { node : node; canon : Path.t; readable : bool; writable : bool; append : bool }

type fd = int

type hook = int

type tag = ..

module Reg = Telemetry.Registry

type t = {
  root : node;
  registry : Reg.t;
  (* Every public call is one modelled kernel crossing (paper §8.1),
     except inside [suspended]; every path component resolution is
     counted, suspended or not. *)
  crossings : Reg.counter;
  components : Reg.counter;
  mutable suspended : int; (* depth of [suspended] nesting *)
  mutable now : float;
  mutable readonly : bool;
  mutable renames : int; (* renames so far: a replay cursor's validity *)
  mutable next_ino : int;
  mutable next_fd : int;
  mutable next_hook : int;
  fds : (int, open_file) Hashtbl.t;
  mutable hooks : (int * tag option * (Op.t -> unit)) list; (* subscription order *)
  mutable mkdir_policy : Path.t -> string list;
  mutable rmdir_policy : Path.t -> bool;
  mutable symlink_policy : Path.t -> target:string -> bool;
  mutable objects : int;
  mutable bytes_used : int;
  (* Procfs-style read-generated files, keyed by inode (inodes are
     never reused, so entries for unlinked nodes are simply dead). *)
  generators : (int, unit -> string) Hashtbl.t;
}

let ( let* ) = Result.bind

let max_symlinks = 40

let fresh_node t ~mode ~uid ~gid payload =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  t.objects <- t.objects + 1;
  { ino; mode; uid; gid; atime = t.now; mtime = t.now; ctime = t.now;
    xattrs = []; acl = Acl.empty; payload; dead = false }

let create () =
  let registry = Reg.create () in
  let root =
    { ino = 1; mode = 0o755; uid = 0; gid = 0; atime = 0.; mtime = 0.;
      ctime = 0.; xattrs = []; acl = Acl.empty;
      payload = P_dir (Hashtbl.create 16); dead = false }
  in
  let t =
    { root; registry;
      crossings = Reg.counter registry "vfs.crossings";
      components = Reg.counter registry "vfs.components";
      suspended = 0; now = 0.;
      readonly = false; renames = 0; next_ino = 2; next_fd = 3;
      next_hook = 0; fds = Hashtbl.create 16; hooks = [];
      mkdir_policy = (fun _ -> []);
      rmdir_policy = (fun _ -> false);
      symlink_policy = (fun _ ~target:_ -> true);
      objects = 1; bytes_used = 0; generators = Hashtbl.create 8 }
  in
  let gauge name f = Reg.gauge registry name (fun () -> float_of_int (f ())) in
  (* Callbacks every mutation runs: the fan-out fsnotify's shared
     dispatcher keeps flat in fleet size. *)
  gauge "vfs.hooks" (fun () -> List.length t.hooks);
  gauge "fs.objects" (fun () -> t.objects);
  gauge "fs.bytes" (fun () -> t.bytes_used);
  t

let registry t = t.registry

let syscall t = if t.suspended = 0 then Reg.incr t.crossings

let suspended t f =
  t.suspended <- t.suspended + 1;
  match f () with
  | v ->
    t.suspended <- t.suspended - 1;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.suspended <- t.suspended - 1;
    Printexc.raise_with_backtrace e bt

let time t = t.now

let set_time t f = t.now <- f

let set_readonly t b = t.readonly <- b

let subscribe ?tag t f =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.hooks <- t.hooks @ [ id, tag, f ];
  id

let unsubscribe t id = t.hooks <- List.filter (fun (i, _, _) -> i <> id) t.hooks

let hooks t = List.length t.hooks

let last_tag t = match List.rev t.hooks with (_, tag, _) :: _ -> tag | [] -> None

(* Hooks run in subscription order over a snapshot. *)
let emit t op =
  let snapshot = t.hooks in
  List.iter (fun (_, _, f) -> f op) snapshot

let set_mkdir_policy t f = t.mkdir_policy <- f

let set_rmdir_policy t f = t.rmdir_policy <- f

let set_symlink_policy t f = t.symlink_policy <- f

(* --- permission checks --------------------------------------------------- *)

let node_allows node cred access =
  Acl.check ~acl:node.acl ~mode:node.mode ~owner:node.uid ~group:node.gid
    cred access

let require node cred access =
  if node_allows node cred access then Ok () else Error Errno.EACCES

let require_owner node cred =
  if Cred.is_root cred || cred.Cred.uid = node.uid then Ok ()
  else Error Errno.EPERM

let require_rw t = if t.readonly then Error Errno.EROFS else Ok ()

(* --- path resolution ----------------------------------------------------- *)

(* The first [n] components of [comps], reversed. *)
let rev_prefix n comps =
  let rec go acc n = function
    | c :: rest when n > 0 -> go (c :: acc) (n - 1) rest
    | _ -> acc
  in
  go [] n comps

(* The canonical path of a walk over [path]: [path] itself until a
   symlink was crossed, else the reversed components accumulated. *)
let canonical path = function
  | None -> path
  | Some rev -> Path.of_components (List.rev rev)

(* Where a walk stands, as reversed canonical components. *)
let position path canon_rev depth =
  match canon_rev with
  | Some rev -> rev
  | None -> rev_prefix depth (Path.components path)

(* The floor check: under a credential with a floor ([Cred.beneath])
   every position a walk reaches lies beneath the floor, or the call
   fails with EXDEV, as openat2's RESOLVE_BENEATH does. Without a floor
   it is one branch. *)
let floored cred = not (Path.equal cred.Cred.floor Path.root)

let outside cred p = not (Path.is_prefix cred.Cred.floor p)

(* An entry op acts in the entry's parent: the floor itself is not an
   entry beneath the floor. *)
let outside_entry cred p =
  floored cred && (outside cred p || Path.equal cred.Cred.floor p)

(* A symlink target's components, its ".." kept: [Path.of_string]
   would resolve them lexically, right only where no symlink precedes
   them, so the walk resolves them physically. *)
let target_components target =
  let comps = List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' target) in
  if List.exists (fun c -> String.length c > 255) comps then Error Errno.ENAMETOOLONG
  else if String.contains target '\000' then Error Errno.EINVAL
  else Ok comps

(* Walk from the root, following symlinks and requiring +x on every
   traversed directory: per component, one probe of the directory's
   (name -> node) table and one permission check. Returns the node
   together with its canonical (symlink-free) path. With [entry], the
   walk stops at the directory holding the last component, which is
   neither looked up nor followed, and returns that directory with the
   canonical path of the entry in it.

   Until the walk crosses a symlink the canonical path is the queried
   path itself, so it is returned as is and nothing is accumulated:
   [canon_rev] stays [None] and [depth] counts the components walked.
   The first symlink builds the canonical prefix, and from there each
   component is consed onto it.

   A symlink target is resolved against the link's canonical
   directory, its ".." as POSIX has it: the physical parent of where
   the walk stands, found by walking that position's canonical path
   again from the root (only a target with ".." pays that walk). Under
   a floor, the target (its ".." resolved lexically) and every ".."
   step must stay beneath it.

   The walk starts at [node], a directory whose canonical path has
   [depth] components, and walks [comps]; [path] is that canonical path
   followed by [comps]. A path walk starts at the root; a handle's walk
   at the held directory. *)
let rec walk_from t cred ~follow_last ~entry path node canon_rev depth comps
    budget =
  match comps with
  | [] -> Ok (node, canonical path canon_rev)
  | ".." :: rest -> (
    match node.payload with
    | P_file _ | P_symlink _ -> Error Errno.ENOTDIR
    | P_dir _ ->
      Reg.incr t.components;
      if not (node_allows node cred Perm.x_ok) then Error Errno.EACCES
      else
        let up = match position path canon_rev depth with [] -> [] | _ :: up -> up in
        let above = List.rev up in
        if floored cred && outside cred (Path.of_components above) then Error Errno.EXDEV
        else
          let* parent, _ =
            walk_from t cred ~follow_last:true ~entry:false path t.root (Some []) 0 above
              budget
          in
          walk_from t cred ~follow_last ~entry path parent (Some up) 0 rest budget)
  | [ name ] when entry -> (
    match node.payload with
    | P_file _ | P_symlink _ -> Error Errno.ENOTDIR
    | P_dir _ -> Ok (node, canonical path (Option.map (List.cons name) canon_rev)))
  | name :: rest -> (
    match node.payload with
    | P_file _ | P_symlink _ -> Error Errno.ENOTDIR
    | P_dir children -> (
      Reg.incr t.components;
      if not (node_allows node cred Perm.x_ok) then Error Errno.EACCES
      else
        match Hashtbl.find_opt children name with
        | None -> Error Errno.ENOENT
        | Some child -> (
          match child.payload with
          | P_symlink target when follow_last || rest <> [] ->
            if budget = 0 then Error Errno.ELOOP
            else
              let* tcomps = target_components target in
              let start, from =
                if target.[0] = '/' then t.root, [] else node, position path canon_rev depth
              in
              if
                floored cred
                && outside cred (Path.of_components (List.rev_append from tcomps))
              then Error Errno.EXDEV
              else
                walk_from t cred ~follow_last ~entry path start (Some from) 0
                  (tcomps @ rest) (budget - 1)
          | _ ->
            let canon_rev =
              match canon_rev with
              | None -> None
              | Some rev -> Some (name :: rev)
            in
            walk_from t cred ~follow_last ~entry path child canon_rev (depth + 1)
              rest budget)))

let resolve t cred ~follow_last path =
  if outside cred path then Error Errno.EXDEV
  else
    walk_from t cred ~follow_last ~entry:false path t.root None 0
      (Path.components path) max_symlinks

(* The directory holding the last component of [comps] (following
   symlinks throughout, including a symlink-to-directory in the parent
   position), the canonical path of the entry, and its name. *)
let parent_from t cred ~start ~depth path comps =
  match Path.basename path with
  | None -> Error Errno.EINVAL (* the root itself *)
  | Some name ->
    if not (Path.valid_name name) then Error Errno.EINVAL
    else
      match
        walk_from t cred ~follow_last:true ~entry:true path start None depth
          comps max_symlinks
      with
      | Ok (pnode, canon) -> Ok (pnode, canon, name)
      | Error _ as e -> e

let resolve_parent t cred path =
  if outside_entry cred path then Error Errno.EXDEV
  else parent_from t cred ~start:t.root ~depth:0 path (Path.components path)

let dir_children node =
  match node.payload with
  | P_dir children -> Ok children
  | P_file _ | P_symlink _ -> Error Errno.ENOTDIR

(* --- stat ----------------------------------------------------------------- *)

let stat_of_node node =
  let kind, size =
    match node.payload with
    | P_dir children -> Dir, Hashtbl.length children
    | P_file f -> File, f.len
    | P_symlink target -> Symlink, String.length target
  in
  let nlink =
    match node.payload with
    | P_dir children ->
      let subdirs =
        Hashtbl.fold
          (fun _ n acc ->
            match n.payload with P_dir _ -> acc + 1 | _ -> acc)
          children 0
      in
      2 + subdirs
    | P_file _ | P_symlink _ -> 1
  in
  { ino = node.ino; kind; mode = node.mode; uid = node.uid; gid = node.gid;
    nlink; size; atime = node.atime; mtime = node.mtime; ctime = node.ctime }

(* --- mutations ------------------------------------------------------------ *)

(* The entry-level halves of mkdir, create, unlink: [pnode] is the
   resolved parent directory (by a walk or a held handle) and [canon]
   the canonical path of [name] in it, journalled on success. *)
let mkdir_in ~mode ~uid ~gid t ~cred pnode name canon ~emit_op =
  let* () = require pnode cred Perm.x_ok in
  let* children = dir_children pnode in
  (* Lookup precedes the write check, as on Linux: an existing entry is
     EEXIST even when the parent is not writable by the caller. *)
  if Hashtbl.mem children name then Error Errno.EEXIST
  else
    let* () = require pnode cred Perm.w_ok in
    let own = Hashtbl.create 8 in
    Hashtbl.replace children name (fresh_node t ~mode ~uid ~gid (P_dir own));
    (* The policy's children are part of the new directory: no walk, no
       crossing and no op of their own. *)
    List.iter
      (fun n ->
        Hashtbl.replace own n
          (fresh_node t ~mode:0o755 ~uid ~gid (P_dir (Hashtbl.create 8))))
      (t.mkdir_policy canon);
    pnode.mtime <- t.now;
    if emit_op then emit t (Op.Mkdir { path = canon; mode; uid; gid });
    Ok ()

let mkdir_raw ?(mode = 0o755) t ~cred path ~emit_op =
  let* () = require_rw t in
  let* pnode, canon, name = resolve_parent t cred path in
  mkdir_in ~mode ~uid:cred.Cred.uid ~gid:cred.Cred.gid t ~cred pnode name canon
    ~emit_op

let mkdir ?mode t ~cred path =
  syscall t;
  mkdir_raw ?mode t ~cred path ~emit_op:true

let mkdir_p ?mode t ~cred path =
  let rec go prefix = function
    | [] -> Ok ()
    | c :: rest ->
      let p = Path.child prefix c in
      syscall t;
      (match mkdir_raw ?mode t ~cred p ~emit_op:true with
      | Ok () | Error Errno.EEXIST -> go p rest
      | Error _ as e -> e)
  in
  (* Under a floor, the floor and its ancestors are not the caller's. *)
  match Path.strip_prefix ~prefix:cred.Cred.floor path with
  | Some below -> go cred.Cred.floor (Path.components below)
  | None -> Error Errno.EXDEV

(* A fresh empty file [name] in the directory [pnode]; the caller has
   found the name free and checked +x on [pnode]. *)
let add_file ~mode ~uid ~gid t ~cred pnode children name canon ~emit_op =
  let* () = require pnode cred Perm.w_ok in
  let node = fresh_node t ~mode ~uid ~gid (P_file { bytes = Bytes.create 0; len = 0 }) in
  Hashtbl.replace children name node;
  pnode.mtime <- t.now;
  if emit_op then emit t (Op.Create { path = canon; mode; uid; gid });
  Ok node

let create_in ~mode ~uid ~gid t ~cred pnode name canon ~emit_op =
  let* () = require pnode cred Perm.x_ok in
  let* children = dir_children pnode in
  if Hashtbl.mem children name then Error Errno.EEXIST
  else
    let* node = add_file ~mode ~uid ~gid t ~cred pnode children name canon ~emit_op in
    Ok (node, canon)

let create_file_raw ?(mode = 0o644) t ~cred path ~emit_op =
  let* () = require_rw t in
  let* pnode, canon, name = resolve_parent t cred path in
  create_in ~mode ~uid:cred.Cred.uid ~gid:cred.Cred.gid t ~cred pnode name canon
    ~emit_op

let create_file ?mode t ~cred path =
  syscall t;
  let* _ = create_file_raw ?mode t ~cred path ~emit_op:true in
  Ok ()

let file_data node =
  match node.payload with
  | P_file f -> Ok f
  | P_dir _ -> Error Errno.EISDIR
  | P_symlink _ -> Error Errno.EINVAL

let read_node t ~cred node =
  let* () = require node cred Perm.r_ok in
  match Hashtbl.find_opt t.generators node.ino with
  | Some gen ->
    (* Procfs semantics: content is produced by the kernel at read time;
       the node stays empty (stat size 0) and no mutation is emitted. *)
    node.atime <- t.now;
    Ok (gen ())
  | None ->
    let* f = file_data node in
    node.atime <- t.now;
    Ok (Bytes.sub_string f.bytes 0 f.len)

let read_file t ~cred path =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:true path in
  read_node t ~cred node

let set_generator t path gen =
  match resolve t Cred.root ~follow_last:true path with
  | Error _ as e -> Result.map (fun _ -> ()) e
  | Ok (node, _) ->
    (match file_data node with
    | Error _ as e -> Result.map (fun _ -> ()) e
    | Ok _ ->
      Hashtbl.replace t.generators node.ino gen;
      Ok ())

let grow f size =
  if Bytes.length f.bytes < size then begin
    let cap = max size (max 32 (2 * Bytes.length f.bytes)) in
    let nb = Bytes.make cap '\000' in
    Bytes.blit f.bytes 0 nb 0 f.len;
    f.bytes <- nb
  end

let write_at t node f ~off data =
  let n = String.length data in
  let new_len = max f.len (off + n) in
  grow f new_len;
  if off > f.len then Bytes.fill f.bytes f.len (off - f.len) '\000';
  Bytes.blit_string data 0 f.bytes off n;
  t.bytes_used <- t.bytes_used + (new_len - f.len);
  f.len <- new_len;
  node.mtime <- t.now

(* Open [name] in the resolved directory [pnode] for writing, creating
   it when missing: one lookup in [pnode], so a new file costs one walk.
   [canon] is the entry's canonical path. A symlinked entry is followed
   by a full walk from [canon]; a dangling one is EEXIST, as creating
   over the link would be. Returns the file with its canonical path and
   whether it existed. *)
let open_or_create_in t ~cred pnode name ~canon ~emit_op =
  let existing node canon =
    let* () = require node cred Perm.w_ok in
    let* f = file_data node in
    Ok (node, canon, f, true)
  in
  let* children = dir_children pnode in
  Reg.incr t.components;
  if not (node_allows pnode cred Perm.x_ok) then Error Errno.EACCES
  else
    match Hashtbl.find_opt children name with
    | Some { payload = P_symlink _; _ } -> (
      match resolve t cred ~follow_last:true canon with
      | Ok (node, canon) -> existing node canon
      | Error Errno.ENOENT -> Error Errno.EEXIST
      | Error _ as e -> e)
    | Some node -> existing node canon
    | None ->
      if not (Path.valid_name name) then Error Errno.EINVAL
      else
        let* () = require_rw t in
        let* node =
          add_file ~mode:0o644 ~uid:cred.Cred.uid ~gid:cred.Cred.gid t ~cred pnode
            children name canon ~emit_op
        in
        let* f = file_data node in
        Ok (node, canon, f, false)

(* [open_or_create_in] for a path: the parent is walked once. *)
let open_or_create t ~cred path ~emit_op =
  match resolve_parent t cred path with
  | Error Errno.EINVAL when Path.basename path = None ->
    (* the root: a directory *)
    let* () = require t.root cred Perm.w_ok in
    Error Errno.EISDIR
  | Error _ as e -> e
  | Ok (pnode, canon, name) -> open_or_create_in t ~cred pnode name ~canon ~emit_op

(* Replace the whole content: a truncate (of an existing file) and one
   write in the journal. *)
let write_whole t (node, canon, f, existed) data ~emit_op =
  t.bytes_used <- t.bytes_used - f.len;
  f.len <- 0;
  write_at t node f ~off:0 data;
  if emit_op then begin
    (* A brand-new file needs no truncate in the journal. *)
    if existed then emit t (Op.Truncate { path = canon; size = 0 });
    emit t (Op.Write { path = canon; off = 0; data })
  end;
  Ok ()

let write_file_raw t ~cred path data ~emit_op =
  let* () = require_rw t in
  let* opened = open_or_create t ~cred path ~emit_op in
  write_whole t opened data ~emit_op

let write_file t ~cred path data =
  syscall t;
  write_file_raw t ~cred path data ~emit_op:true

let append_file t ~cred path data =
  syscall t;
  let* () = require_rw t in
  let* node, canon, f, _ = open_or_create t ~cred path ~emit_op:true in
  let off = f.len in
  write_at t node f ~off data;
  emit t (Op.Write { path = canon; off; data });
  Ok ()

let truncate t ~cred path size =
  syscall t;
  let* () = require_rw t in
  if size < 0 then Error Errno.EINVAL
  else
    let* node, canon = resolve t cred ~follow_last:true path in
    let* () = require node cred Perm.w_ok in
    let* f = file_data node in
    if size <= f.len then begin
      t.bytes_used <- t.bytes_used - (f.len - size);
      f.len <- size
    end
    else begin
      grow f size;
      Bytes.fill f.bytes f.len (size - f.len) '\000';
      t.bytes_used <- t.bytes_used + (size - f.len);
      f.len <- size
    end;
    node.mtime <- t.now;
    emit t (Op.Truncate { path = canon; size });
    Ok ()

let drop_node t node =
  t.objects <- t.objects - 1;
  node.dead <- true;
  match node.payload with
  | P_file f -> t.bytes_used <- t.bytes_used - f.len
  | P_dir _ | P_symlink _ -> ()

let unlink_in t ~cred pnode name canon ~emit_op =
  let* () = require pnode cred Perm.w_ok in
  let* () = require pnode cred Perm.x_ok in
  let* children = dir_children pnode in
  match Hashtbl.find_opt children name with
  | None -> Error Errno.ENOENT
  | Some node -> (
    match node.payload with
    | P_dir _ -> Error Errno.EISDIR
    | P_file _ | P_symlink _ ->
      Hashtbl.remove children name;
      drop_node t node;
      pnode.mtime <- t.now;
      if emit_op then emit t (Op.Unlink { path = canon });
      Ok ())

let unlink_raw t ~cred path ~emit_op =
  let* () = require_rw t in
  let* pnode, canon, name = resolve_parent t cred path in
  unlink_in t ~cred pnode name canon ~emit_op

let unlink t ~cred path =
  syscall t;
  unlink_raw t ~cred path ~emit_op:true

(* Depth-first removal; emits one op per removed entry so that both
   fsnotify watchers and distributed replicas see every deletion. *)
let rec remove_tree t ~cred canon node ~emit_op =
  match node.payload with
  | P_file _ | P_symlink _ ->
    drop_node t node;
    if emit_op then emit t (Op.Unlink { path = canon });
    Ok ()
  | P_dir children ->
    let* () = require node cred Perm.w_ok in
    let* () = require node cred Perm.x_ok in
    let entries =
      Hashtbl.fold (fun name child acc -> (name, child) :: acc) children []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let rec go = function
      | [] -> Ok ()
      | (name, child) :: rest ->
        let* () = remove_tree t ~cred (Path.child canon name) child ~emit_op in
        Hashtbl.remove children name;
        go rest
    in
    let* () = go entries in
    drop_node t node;
    if emit_op then emit t (Op.Rmdir { path = canon; recursive = false });
    Ok ()

let rmdir_raw ?(recursive = false) t ~cred path ~emit_op =
  let* () = require_rw t in
  let* pnode, canon, name = resolve_parent t cred path in
  let* () = require pnode cred Perm.w_ok in
  let* () = require pnode cred Perm.x_ok in
  let* children = dir_children pnode in
  match Hashtbl.find_opt children name with
  | None -> Error Errno.ENOENT
  | Some node -> (
    match node.payload with
    | P_file _ | P_symlink _ -> Error Errno.ENOTDIR
    | P_dir sub ->
      if Hashtbl.length sub = 0 then begin
        Hashtbl.remove children name;
        drop_node t node;
        pnode.mtime <- t.now;
        if emit_op then emit t (Op.Rmdir { path = canon; recursive = false });
        Ok ()
      end
      else if (not recursive) && not (t.rmdir_policy canon) then
        Error Errno.ENOTEMPTY
      else
        let* () = remove_tree t ~cred canon node ~emit_op in
        Hashtbl.remove children name;
        pnode.mtime <- t.now;
        Ok ())

let rmdir ?recursive t ~cred path =
  syscall t;
  rmdir_raw ?recursive t ~cred path ~emit_op:true

(* What every listing checks and touches ([readdir], [readdir_ino_at]):
   read permission, a directory, its atime. Its callers sort by name. *)
let listable t ~cred node =
  let* () = require node cred Perm.r_ok in
  match dir_children node with
  | Ok _ as children -> node.atime <- t.now; children
  | Error _ as e -> e

let list_node t ~cred node =
  let* children = listable t ~cred node in
  Ok (Hashtbl.fold (fun name _ acc -> name :: acc) children []
      |> List.sort String.compare)

let readdir t ~cred path =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:true path in
  list_node t ~cred node

(* --- directory handles ([openat]-style) ------------------------------------ *)

type dir = { dnode : node; dcanon : Path.t; depth : int }

let opendir t ~cred path =
  syscall t;
  let* node, canon = resolve t cred ~follow_last:true path in
  match node.payload with
  | P_dir _ ->
    Ok { dnode = node; dcanon = canon; depth = List.length (Path.components canon) }
  | P_file _ | P_symlink _ -> Error Errno.ENOTDIR

let dir_ino d = d.dnode.ino

(* A handle call's entry check: the directory is live, and lies beneath
   the credential's floor. *)
let held cred d =
  if d.dnode.dead then Error Errno.ENOENT
  else if outside cred d.dcanon then Error Errno.EXDEV
  else Ok ()

(* [rel] below a handle: a name, or several separated by '/'. *)
let rel_components rel =
  if String.contains rel '/' then String.split_on_char '/' rel else [ rel ]

(* [resolve] and [resolve_parent] from the held directory: the same
   walk, so a symlink on the way is followed and the canonical path
   comes out as from the root. *)
let resolve_at t cred ~follow_last d rel =
  let comps = rel_components rel in
  if not (List.for_all Path.valid_name comps) then Error Errno.EINVAL
  else
    walk_from t cred ~follow_last ~entry:false
      (List.fold_left Path.child d.dcanon comps)
      d.dnode None d.depth comps max_symlinks

let resolve_parent_at t cred d rel =
  if not (String.contains rel '/') then
    (* an entry of the held directory: nothing to walk *)
    if Path.valid_name rel then Ok (d.dnode, Path.child d.dcanon rel, rel)
    else Error Errno.EINVAL
  else
    let comps = String.split_on_char '/' rel in
    if not (List.for_all Path.valid_name comps) then Error Errno.EINVAL
    else
      parent_from t cred ~start:d.dnode ~depth:d.depth
        (List.fold_left Path.child d.dcanon comps)
        comps

let readdir_at t ~cred d =
  syscall t;
  let* () = held cred d in
  list_node t ~cred d.dnode

let readdir_ino_at t ~cred d =
  syscall t;
  let* () = held cred d in
  let* children = listable t ~cred d.dnode in
  Ok (Hashtbl.fold (fun name node acc -> (name, node.ino) :: acc) children []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let read_file_at t ~cred d rel =
  syscall t;
  let* () = held cred d in
  let* node, _ = resolve_at t cred ~follow_last:true d rel in
  read_node t ~cred node

let write_file_at t ~cred d rel data =
  syscall t;
  let* () = require_rw t in
  let* () = held cred d in
  let* pnode, canon, name = resolve_parent_at t cred d rel in
  let* opened = open_or_create_in t ~cred pnode name ~canon ~emit_op:true in
  write_whole t opened data ~emit_op:true

let unlink_at t ~cred d rel =
  syscall t;
  let* () = require_rw t in
  let* () = held cred d in
  let* pnode, canon, name = resolve_parent_at t cred d rel in
  unlink_in t ~cred pnode name canon ~emit_op:true

let mkdir_at t ~cred d rel =
  syscall t;
  let* () = require_rw t in
  let* () = held cred d in
  let* pnode, canon, name = resolve_parent_at t cred d rel in
  mkdir_in ~mode:0o755 ~uid:cred.Cred.uid ~gid:cred.Cred.gid t ~cred pnode name
    canon ~emit_op:true

let symlink_raw t ~cred ~target path ~emit_op =
  let* () = require_rw t in
  if target = "" then Error Errno.EINVAL
  else
    let* pnode, canon, name = resolve_parent t cred path in
    let* () = require pnode cred Perm.x_ok in
    let* children = dir_children pnode in
    if Hashtbl.mem children name then Error Errno.EEXIST
    else if not (t.symlink_policy canon ~target) then
      Error Errno.EINVAL
    else
      let* () = require pnode cred Perm.w_ok in
      begin
      let node =
        fresh_node t ~mode:0o777 ~uid:cred.Cred.uid ~gid:cred.Cred.gid
          (P_symlink target)
      in
      Hashtbl.replace children name node;
      pnode.mtime <- t.now;
      if emit_op then emit t (Op.Symlink { path = canon; target });
      Ok ()
    end

let symlink t ~cred ~target path =
  syscall t;
  symlink_raw t ~cred ~target path ~emit_op:true

let readlink t ~cred path =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:false path in
  match node.payload with
  | P_symlink target -> Ok target
  | P_dir _ | P_file _ -> Error Errno.EINVAL

let rename_raw t ~cred ~src ~dst ~emit_op =
  let* () = require_rw t in
  let* spnode, scanon, sname = resolve_parent t cred src in
  let* () = require spnode cred Perm.w_ok in
  let* () = require spnode cred Perm.x_ok in
  let* schildren = dir_children spnode in
  match Hashtbl.find_opt schildren sname with
  | None -> Error Errno.ENOENT
  | Some node ->
    let* dpnode, dcanon, dname = resolve_parent t cred dst in
    let* () = require dpnode cred Perm.w_ok in
    let* () = require dpnode cred Perm.x_ok in
    let* dchildren = dir_children dpnode in
    if Path.equal scanon dcanon then Ok ()
    else if Path.is_prefix scanon dcanon then Error Errno.EINVAL
    else begin
      (* POSIX rename: an existing destination is replaced atomically,
         provided the kinds are compatible. *)
      let* () =
        match Hashtbl.find_opt dchildren dname with
        | None -> Ok ()
        | Some existing -> (
          match existing.payload, node.payload with
          | P_dir ec, P_dir _ ->
            if Hashtbl.length ec = 0 then begin
              Hashtbl.remove dchildren dname;
              drop_node t existing;
              Ok ()
            end
            else Error Errno.ENOTEMPTY
          | P_dir _, _ -> Error Errno.EISDIR
          | _, P_dir _ -> Error Errno.ENOTDIR
          | _, _ ->
            Hashtbl.remove dchildren dname;
            drop_node t existing;
            Ok ())
      in
      Hashtbl.remove schildren sname;
      Hashtbl.replace dchildren dname node;
      t.renames <- t.renames + 1;
      spnode.mtime <- t.now;
      dpnode.mtime <- t.now;
      node.ctime <- t.now;
      if emit_op then emit t (Op.Rename { src = scanon; dst = dcanon });
      Ok ()
    end

let rename t ~cred ~src ~dst =
  syscall t;
  rename_raw t ~cred ~src ~dst ~emit_op:true

(* --- fds ------------------------------------------------------------------ *)

type open_flag = O_rdonly | O_wronly | O_rdwr | O_creat | O_trunc | O_append | O_excl

let openfile ?(mode = 0o644) t ~cred path flags =
  syscall t;
  let has f = List.mem f flags in
  let readable = has O_rdonly || has O_rdwr || not (has O_wronly) in
  let writable = has O_wronly || has O_rdwr || has O_append in
  let* node, canon =
    match resolve t cred ~follow_last:true path with
    | Ok (node, canon) ->
      if has O_creat && has O_excl then Error Errno.EEXIST
      else Ok (node, canon)
    | Error Errno.ENOENT when has O_creat ->
      suspended t (fun () -> create_file_raw ~mode t ~cred path ~emit_op:true)
    | Error _ as e -> e
  in
  let* () = if readable then require node cred Perm.r_ok else Ok () in
  let* () = if writable then require node cred Perm.w_ok else Ok () in
  let* () =
    if writable then match node.payload with
      | P_dir _ -> Error Errno.EISDIR
      | _ -> require_rw t
    else Ok ()
  in
  let* () =
    if has O_trunc && writable then begin
      match node.payload with
      | P_file f ->
        t.bytes_used <- t.bytes_used - f.len;
        f.len <- 0;
        node.mtime <- t.now;
        emit t (Op.Truncate { path = canon; size = 0 });
        Ok ()
      | P_dir _ -> Error Errno.EISDIR
      | P_symlink _ -> Error Errno.EINVAL
    end
    else Ok ()
  in
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd
    { node; canon; readable; writable; append = has O_append };
  Ok fd

let lookup_fd t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error Errno.EBADF
  | Some o -> Ok o

let close t fd =
  syscall t;
  let* _ = lookup_fd t fd in
  Hashtbl.remove t.fds fd;
  Ok ()

let pread t fd ~off ~len =
  syscall t;
  let* o = lookup_fd t fd in
  if not o.readable then Error Errno.EBADF
  else if off < 0 || len < 0 then Error Errno.EINVAL
  else
    let* f = file_data o.node in
    o.node.atime <- t.now;
    if off >= f.len then Ok ""
    else Ok (Bytes.sub_string f.bytes off (min len (f.len - off)))

let pwrite t fd ~off data =
  syscall t;
  let* o = lookup_fd t fd in
  if not o.writable then Error Errno.EBADF
  else if off < 0 then Error Errno.EINVAL
  else
    let* () = require_rw t in
    let* f = file_data o.node in
    let off = if o.append then f.len else off in
    write_at t o.node f ~off data;
    emit t (Op.Write { path = o.canon; off; data });
    Ok (String.length data)

let fd_path t fd =
  let* o = lookup_fd t fd in
  Ok o.canon

(* --- metadata ------------------------------------------------------------- *)

let stat t ~cred path =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:true path in
  Ok (stat_of_node node)

let lstat t ~cred path =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:false path in
  Ok (stat_of_node node)

let kind_of_raw t ~cred ~follow path =
  let* node, _ = resolve t cred ~follow_last:follow path in
  Ok
    (match node.payload with
    | P_dir _ -> Dir
    | P_file _ -> File
    | P_symlink _ -> Symlink)

let kind_of ?(follow = true) t ~cred path =
  syscall t;
  kind_of_raw t ~cred ~follow path

(* The bool forms are sugar over [kind_of] and conflate every failure —
   EACCES looks like ENOENT. Callers that must tell the difference use
   [kind_of] directly. *)
let exists t ~cred path =
  suspended t (fun () ->
      match kind_of_raw t ~cred ~follow:true path with
      | Ok _ -> true
      | Error _ -> false)

let is_dir t ~cred path =
  suspended t (fun () ->
      match kind_of_raw t ~cred ~follow:true path with
      | Ok Dir -> true
      | Ok _ | Error _ -> false)

let chmod t ~cred path mode =
  syscall t;
  let* () = require_rw t in
  let* node, canon = resolve t cred ~follow_last:true path in
  let* () = require_owner node cred in
  node.mode <- mode land 0o7777;
  node.ctime <- t.now;
  emit t (Op.Chmod { path = canon; mode = node.mode });
  Ok ()

let chown t ~cred path ~uid ~gid =
  syscall t;
  let* () = require_rw t in
  let* node, canon = resolve t cred ~follow_last:true path in
  if not (Cred.is_root cred) then Error Errno.EPERM
  else begin
    node.uid <- uid;
    node.gid <- gid;
    node.ctime <- t.now;
    emit t (Op.Chown { path = canon; uid; gid });
    Ok ()
  end

let access t ~cred path a =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:true path in
  require node cred a

let canonicalize t ~cred path =
  syscall t;
  let* _, canon = resolve t cred ~follow_last:true path in
  Ok canon

(* --- xattrs --------------------------------------------------------------- *)

let setxattr t ~cred path ~name ~value =
  syscall t;
  let* () = require_rw t in
  if name = "" then Error Errno.EINVAL
  else
    let* node, canon = resolve t cred ~follow_last:true path in
    let* () = require node cred Perm.w_ok in
    node.xattrs <- (name, value) :: List.remove_assoc name node.xattrs;
    node.ctime <- t.now;
    emit t (Op.Set_xattr { path = canon; name; value });
    Ok ()

let getxattr t ~cred path ~name =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:true path in
  let* () = require node cred Perm.r_ok in
  match List.assoc_opt name node.xattrs with
  | Some v -> Ok v
  | None -> Error Errno.ENOENT

let listxattr t ~cred path =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:true path in
  let* () = require node cred Perm.r_ok in
  Ok (List.map fst node.xattrs |> List.sort String.compare)

let removexattr t ~cred path ~name =
  syscall t;
  let* () = require_rw t in
  let* node, canon = resolve t cred ~follow_last:true path in
  let* () = require node cred Perm.w_ok in
  if List.mem_assoc name node.xattrs then begin
    node.xattrs <- List.remove_assoc name node.xattrs;
    node.ctime <- t.now;
    emit t (Op.Remove_xattr { path = canon; name });
    Ok ()
  end
  else Error Errno.ENOENT

(* --- acls ----------------------------------------------------------------- *)

let set_acl t ~cred path acl =
  syscall t;
  let* () = require_rw t in
  if not (Acl.validate acl) then Error Errno.EINVAL
  else
    let* node, canon = resolve t cred ~follow_last:true path in
    let* () = require_owner node cred in
    node.acl <- acl;
    node.ctime <- t.now;
    emit t (Op.Set_acl { path = canon; acl });
    Ok ()

let get_acl t ~cred path =
  syscall t;
  let* node, _ = resolve t cred ~follow_last:true path in
  Ok node.acl

(* --- replay --------------------------------------------------------------- *)

(* A replay cursor: the directory the previous op of a run resolved
   its entry in, so a run of ops into one directory (a replicated flow
   commit) walks the path once, as a handle does. The next op reuses it
   when its path differs from the previous one only in the last
   component, the directory is live, no rename has happened since, and
   the walk that found it crossed no symlink (so the path still names
   it). *)
type cursor = { mutable last : (Path.t * node * int) option }

let cursor () = { last = None }

let rec same_dir a b =
  match a, b with
  | [ _ ], [ _ ] -> true
  | x :: a, y :: b -> String.equal x y && same_dir a b
  | _ -> false

(* [resolve_parent] as root, through [cursor] when it holds. *)
let replay_parent t cursor path =
  match cursor with
  | None -> resolve_parent t Cred.root path
  | Some c -> (
    match c.last, Path.basename path with
    | Some (prev, pnode, renames), Some name
      when renames = t.renames && (not pnode.dead) && Path.valid_name name
           && same_dir (Path.components prev) (Path.components path) ->
      Ok (pnode, path, name)
    | _ ->
      let* pnode, canon, name = resolve_parent t Cred.root path in
      c.last <- (if canon == path then Some (path, pnode, t.renames) else None);
      Ok (pnode, canon, name))

(* A read-only replica refuses every op kind, before anything resolves. *)
let replay_raw ?cursor t op =
  let cred = Cred.root in
  let* () = require_rw t in
  suspended t (fun () ->
      match (op : Op.t) with
      | Mkdir { path; mode; uid; gid } -> (
        match
          let* pnode, canon, name = replay_parent t cursor path in
          mkdir_in ~mode ~uid ~gid t ~cred pnode name canon ~emit_op:false
        with
        | Ok () | Error Errno.EEXIST -> Ok ()
        | Error _ as e -> e)
      | Create { path; mode; uid; gid } -> (
        match
          let* pnode, canon, name = replay_parent t cursor path in
          create_in ~mode ~uid ~gid t ~cred pnode name canon ~emit_op:false
        with
        | Ok _ | Error Errno.EEXIST -> Ok ()
        | Error _ as e -> e)
      | Write { path; off; data } ->
        let* pnode, canon, name = replay_parent t cursor path in
        let* node, _, f, _ =
          open_or_create_in t ~cred pnode name ~canon ~emit_op:false
        in
        write_at t node f ~off data;
        Ok ()
      | Truncate { path; size } -> (
        match resolve t cred ~follow_last:true path with
        | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> Result.map (fun _ -> ()) e
        | Ok (node, _) -> (
          match file_data node with
          | Error _ as e -> Result.map (fun _ -> ()) e
          | Ok f ->
            if size <= f.len then begin
              t.bytes_used <- t.bytes_used - (f.len - size);
              f.len <- size
            end
            else begin
              grow f size;
              t.bytes_used <- t.bytes_used + (size - f.len);
              f.len <- size
            end;
            node.mtime <- t.now;
            Ok ()))
      | Unlink { path } -> (
        match
          let* pnode, canon, name = replay_parent t cursor path in
          unlink_in t ~cred pnode name canon ~emit_op:false
        with
        | Ok () | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> e)
      | Rmdir { path; _ } -> (
        match rmdir_raw ~recursive:true t ~cred path ~emit_op:false with
        | Ok () | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> e)
      | Rename { src; dst } -> (
        match rename_raw t ~cred ~src ~dst ~emit_op:false with
        | Ok () | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> e)
      | Symlink { path; target } -> (
        match symlink_raw t ~cred ~target path ~emit_op:false with
        | Ok () | Error Errno.EEXIST -> Ok ()
        | Error _ as e -> e)
      | Chmod { path; mode } -> (
        (* Attribute ops are applied inline here rather than through
           [chmod]: replay must not re-check ownership. *)
        match resolve t cred ~follow_last:true path with
        | Ok (node, _) ->
          node.mode <- mode land 0o7777;
          Ok ()
        | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> Result.map (fun _ -> ()) e)
      | Chown { path; uid; gid } -> (
        match resolve t cred ~follow_last:true path with
        | Ok (node, _) ->
          node.uid <- uid;
          node.gid <- gid;
          Ok ()
        | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> Result.map (fun _ -> ()) e)
      | Set_xattr { path; name; value } -> (
        match resolve t cred ~follow_last:true path with
        | Ok (node, _) ->
          node.xattrs <- (name, value) :: List.remove_assoc name node.xattrs;
          Ok ()
        | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> Result.map (fun _ -> ()) e)
      | Remove_xattr { path; name } -> (
        match resolve t cred ~follow_last:true path with
        | Ok (node, _) ->
          node.xattrs <- List.remove_assoc name node.xattrs;
          Ok ()
        | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> Result.map (fun _ -> ()) e)
      | Set_acl { path; acl } -> (
        match resolve t cred ~follow_last:true path with
        | Ok (node, _) ->
          node.acl <- acl;
          Ok ()
        | Error Errno.ENOENT -> Ok ()
        | Error _ as e -> Result.map (fun _ -> ()) e))

let replay ?cursor t op =
  let result = replay_raw ?cursor t op in
  if Result.is_ok result then emit t op;
  result

(* --- traversal ------------------------------------------------------------ *)

type fold_action = [ `Continue | `Skip_subtree | `Stop ]

(* Internal pre-order traversal over nodes with early-stop; charges no
   crossing itself so that each public entry point stays at exactly
   one. Children are visited in sorted name order; child symlinks are
   never followed (only [follow] applies, to the starting path). *)
let fold_nodes t ~cred ~follow path ~init f =
  let* start, canon = resolve t cred ~follow_last:follow path in
  let stop = ref false in
  let rec go acc canon node =
    let acc, action = f acc canon node in
    match (action : fold_action) with
    | `Stop ->
      stop := true;
      acc
    | `Skip_subtree -> acc
    | `Continue -> (
      match node.payload with
      | P_file _ | P_symlink _ -> acc
      | P_dir children ->
        Hashtbl.fold (fun name child acc -> (name, child) :: acc) children []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.fold_left
             (fun acc (name, child) ->
               if !stop then acc else go acc (Path.child canon name) child)
             acc)
  in
  Ok (go init canon start)

let fold ?(follow = false) t ~cred path ~init f =
  syscall t;
  fold_nodes t ~cred ~follow path ~init (fun acc canon node ->
      f acc canon (stat_of_node node))

let tree t ~cred path =
  syscall t;
  let* entries =
    fold_nodes t ~cred ~follow:true path ~init:[] (fun acc canon node ->
        let name =
          match Path.basename canon with Some b -> b | None -> "/"
        in
        let label =
          match node.payload with
          | P_symlink target -> name ^ " -> " ^ target
          | P_dir _ | P_file _ -> name
        in
        ((canon, label) :: acc, `Continue))
  in
  match List.rev entries with
  | [] -> Error Errno.ENOENT (* unreachable: the start node is visited *)
  | (root_canon, _) :: rest ->
    (* Pre-order visits siblings in sorted order, so grouping by parent
       preserves each directory's listing order. *)
    let children : (string, (Path.t * string) list ref) Hashtbl.t =
      Hashtbl.create 32
    in
    List.iter
      (fun (canon, label) ->
        match Path.parent canon with
        | None -> ()
        | Some parent ->
          let key = Path.to_string parent in
          (match Hashtbl.find_opt children key with
          | Some l -> l := (canon, label) :: !l
          | None -> Hashtbl.replace children key (ref [ canon, label ])))
      rest;
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (match Path.basename path with Some b -> b | None -> "/");
    Buffer.add_char buf '\n';
    let rec render prefix canon =
      match Hashtbl.find_opt children (Path.to_string canon) with
      | None -> ()
      | Some kids ->
        let kids = List.rev !kids in
        let n = List.length kids in
        List.iteri
          (fun i (kcanon, label) ->
            let last = i = n - 1 in
            Buffer.add_string buf prefix;
            Buffer.add_string buf (if last then "└── " else "├── ");
            Buffer.add_string buf label;
            Buffer.add_char buf '\n';
            render (prefix ^ if last then "    " else "│   ") kcanon)
          kids
    in
    render "" root_canon;
    Ok (Buffer.contents buf)

let size_info t = (t.objects, t.bytes_used)
