(** The mutation stream: every state-changing VFS call is journalled as
    one of these records and delivered to subscribed hooks.

    Two subsystems consume the stream, exactly as on Linux:
    - {!Fsnotify} translates ops to inotify-style events for
      applications (paper §5.2), and
    - the distributed file-system layer ({!Dfs}) replicates ops to other
      controller nodes (paper §6), giving a distributed controller with
      no yanc-specific code.

    Ops carry enough information to be replayed verbatim on a replica:
    a [Mkdir] or [Create] names the new node's owner, so a replica's copy
    is owned as the origin's is. {!pp} does not print the owner. *)

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

val path : t -> Path.t
(** The primary path the op touches (the source, for [Rename]). *)

val is_structural : t -> bool
(** True for ops that add or remove directory entries (mkdir, create,
    unlink, rmdir, rename, symlink) as opposed to content/metadata
    changes. *)

val pp : Format.formatter -> t -> unit
