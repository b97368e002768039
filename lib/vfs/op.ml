type t =
  | Mkdir of { path : Path.t; mode : int; uid : int; gid : int }
  | Create of { path : Path.t; mode : int; uid : int; gid : int }
  | Write of { path : Path.t; off : int; data : string }
  | Truncate of { path : Path.t; size : int }
  | Unlink of { path : Path.t }
  | Rmdir of { path : Path.t; recursive : bool }
  | Rename of { src : Path.t; dst : Path.t }
  | Symlink of { path : Path.t; target : string }
  | Chmod of { path : Path.t; mode : int }
  | Chown of { path : Path.t; uid : int; gid : int }
  | Set_xattr of { path : Path.t; name : string; value : string }
  | Remove_xattr of { path : Path.t; name : string }
  | Set_acl of { path : Path.t; acl : Acl.t }

let path = function
  | Mkdir { path; _ }
  | Create { path; _ }
  | Write { path; _ }
  | Truncate { path; _ }
  | Unlink { path }
  | Rmdir { path; _ }
  | Symlink { path; _ }
  | Chmod { path; _ }
  | Chown { path; _ }
  | Set_xattr { path; _ }
  | Remove_xattr { path; _ }
  | Set_acl { path; _ } -> path
  | Rename { src; _ } -> src

let is_structural = function
  | Mkdir _ | Create _ | Unlink _ | Rmdir _ | Rename _ | Symlink _ -> true
  | Write _ | Truncate _ | Chmod _ | Chown _ | Set_xattr _ | Remove_xattr _
  | Set_acl _ -> false

let pp ppf op =
  match op with
  | Mkdir { path; mode; _ } -> Format.fprintf ppf "mkdir %a %o" Path.pp path mode
  | Create { path; mode; _ } -> Format.fprintf ppf "create %a %o" Path.pp path mode
  | Write { path; off; data } ->
    Format.fprintf ppf "write %a @%d (%d bytes)" Path.pp path off
      (String.length data)
  | Truncate { path; size } -> Format.fprintf ppf "truncate %a %d" Path.pp path size
  | Unlink { path } -> Format.fprintf ppf "unlink %a" Path.pp path
  | Rmdir { path; recursive } ->
    Format.fprintf ppf "rmdir%s %a" (if recursive then " -r" else "") Path.pp path
  | Rename { src; dst } -> Format.fprintf ppf "rename %a -> %a" Path.pp src Path.pp dst
  | Symlink { path; target } -> Format.fprintf ppf "symlink %a -> %s" Path.pp path target
  | Chmod { path; mode } -> Format.fprintf ppf "chmod %a %o" Path.pp path mode
  | Chown { path; uid; gid } -> Format.fprintf ppf "chown %a %d:%d" Path.pp path uid gid
  | Set_xattr { path; name; _ } -> Format.fprintf ppf "setxattr %a %s" Path.pp path name
  | Remove_xattr { path; name } -> Format.fprintf ppf "rmxattr %a %s" Path.pp path name
  | Set_acl { path; _ } -> Format.fprintf ppf "setacl %a" Path.pp path
