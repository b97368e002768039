(** The in-memory virtual file system.

    This is the substrate that stands in for the Linux VFS + FUSE stack
    the yanc prototype was built on: a single rooted tree of directories,
    regular files and symbolic links, with Unix permissions, POSIX ACLs,
    extended attributes, a file-descriptor table, and two cross-cutting
    facilities the paper leans on:

    - a {b mutation stream} ({!subscribe}): every successful
      state-changing call is journalled as an {!Op.t} and delivered to
      subscribers. {!Fsnotify} and the distributed-FS layer are both
      implemented purely as subscribers, mirroring how inotify and
      network file systems hook the Linux VFS;
    - a {b kernel-crossing cost model} ({!syscall}): every public call
      counts as one syscall in the [vfs.crossings] counter of the file
      system's {!registry}, so the §8.1 overhead argument can be
      measured against the [Libyanc] fastpath.

    All operations take an explicit credential and return
    [('a, Errno.t) result]; nothing raises on I/O failure. *)

type t

type kind = Dir | File | Symlink

type stat = {
  ino : int;
  kind : kind;
  mode : int;          (** permission bits, e.g. 0o755 *)
  uid : int;
  gid : int;
  nlink : int;
  size : int;          (** bytes for files, entry count for dirs *)
  atime : float;
  mtime : float;
  ctime : float;
}

type fd

val create : unit -> t
(** A fresh file system containing only the root directory (mode 0o755,
    owned by root), with a fresh registry ({!registry}).
    The file system owns the registry a controller over it shares:
    its counts are registry counters bumped in place —
    [vfs.crossings] and [vfs.components] here, the [fsnotify.*]
    dispatch counters from every {!Fsnotify} notifier on it — and it
    publishes the gauges [vfs.hooks], [fs.objects] and [fs.bytes]. *)

val registry : t -> Telemetry.Registry.t

(** {1 Kernel crossings (paper §8.1)}

    Every public call models one user→kernel context switch. The
    paper's concern is that "writing flow entries to thousands of nodes
    will result in tens of thousands of context switches"; libyanc's
    fastpath exists to remove them. *)

val syscall : t -> unit
(** Count one crossing in [vfs.crossings], unless inside {!suspended}. *)

val suspended : t -> (unit -> 'a) -> 'a
(** Run a function with crossing accounting disabled — a [Libyanc]
    batch, where many logical operations share one crossing, and
    kernel-internal recursion (an op implemented in terms of other ops
    must not double-count). Path components walked and fsnotify work
    are still counted: they measure dentry walking and event routing,
    not crossings. *)

(** {1 Path resolution}

    Every path is resolved by one walk from the root: per component, a
    probe of the directory's (name -> node) table and a traversal
    permission check. The per-directory tables are the dentry cache, as
    in Linux; there is no full-path cache above them, so no mutation
    has anything to invalidate. A walk that crosses no symlink returns
    the queried path as the canonical one; ops and events carry
    canonical paths.

    A symlink target is resolved against the link's canonical
    directory, and its [..] as POSIX has it: the physical parent of
    where the walk stands. So [/a/b/link -> ../c] names [/a/c], and a
    [..] after a symlink in the target climbs from where that symlink
    led, not from its name. Only a target with [..] pays for it, one
    walk of the parent's canonical path per [..].

    {b The credential floor.} A call made under a credential with a
    floor ({!Cred.beneath}) fails with [EXDEV], the errno of openat2's
    [RESOLVE_BENEATH], when it would reach outside the floor:
    - the path it is given is not beneath the floor (for a call that
      adds, removes or renames an entry, the entry's parent must be);
    - the handle it is given holds a directory not beneath the floor;
    - a symlink on the way has a target, absolute or relative with its
      [..] resolved, outside the floor, or a [..] of a target climbs
      out of it.
    Beneath the floor the credential acts as it would without one, and
    a handle opened under a floor stays confined, since every [*_at]
    call checks the credential it is given. The check adds no crossing,
    component or op; a call without a floor pays one branch at its
    entry and one per symlink crossed. *)

(** {1 Simulated time}

    Timestamps come from a per-filesystem clock that the embedding
    simulation advances; they never consult the host clock, keeping runs
    deterministic. *)

val time : t -> float
val set_time : t -> float -> unit

(** {1 Read-only mode} *)

val set_readonly : t -> bool -> unit
(** When set, every mutating call fails with [EROFS]. Used for read-only
    views/slices. *)

(** {1 Mutation stream} *)

type hook

type tag = ..
(** What a subscriber says its hook is, so that it can find the hook
    again on this file system ({!last_tag}) without a table of its own:
    fsnotify's shared dispatcher is one. *)

val subscribe : ?tag:tag -> t -> (Op.t -> unit) -> hook
(** Called after each successful mutation, in subscription order, with
    the canonical (symlink-free) path of the affected object. Subscribers
    are observers: they must not mutate this file system, subscribe or
    unsubscribe from within a callback, so every subscriber sees the ops
    in commit order, a directory's [Mkdir] before anything inside it. *)

val unsubscribe : t -> hook -> unit

val hooks : t -> int
(** Live subscriptions: the number of callbacks every mutation runs. *)

val last_tag : t -> tag option
(** The tag of the newest live hook ([None] without one, or when it was
    subscribed untagged): anything served from that hook still runs
    after every other subscriber. *)

(** {1 Per-filesystem policies}

    The interposition points a real VFS gives a filesystem
    implementation, reduced to the three yanc needs. *)

val set_mkdir_policy : t -> (Path.t -> string list) -> unit
(** Consulted on every directory creation, replay included, with the
    new directory's canonical path: it is born holding one empty
    directory per name the policy returns (mode [0o755], the new
    directory's owner), as a cgroupfs or configfs directory is. The
    children are part of the one [Mkdir] op, so no separate op, event
    or crossing reports them, and a replica that applies the same
    policy derives them from the parent's op. The policy is not
    consulted for the children themselves. Default: no children. *)

val set_rmdir_policy : t -> (Path.t -> bool) -> unit
(** When the policy answers [true] for a non-empty directory, a plain
    [rmdir] of it behaves recursively — the paper makes switch removal
    "automatically recursive" (§3.2). Default: never. *)

val set_symlink_policy : t -> (Path.t -> target:string -> bool) -> unit
(** Consulted before creating a symlink; [false] fails the call with
    [EINVAL] — the paper makes it "an error to point [a port's peer]
    symbolic link at anything other than a port" (§3.3). Default: allow
    all. *)

type cursor
(** Where the previous op of a replayed run resolved: a run of ops into
    one directory walks its path once. *)

val cursor : unit -> cursor
(** A fresh cursor, for one run of {!replay} calls. *)

val replay : ?cursor:cursor -> t -> Op.t -> (unit, Errno.t) result
(** Apply a journalled op with root credentials, without charging a
    kernel crossing; a [Mkdir] or [Create] makes its node with the op's
    owner. This is the replication primitive of the distributed-FS
    layer. Replay is idempotent for structural ops
    ([Mkdir]/[Create] of an existing object, [Unlink]/[Rmdir] of a
    missing one succeed silently), which lets replicas reconcile after
    partitions. A read-only file system ({!set_readonly}) refuses every
    op kind with [EROFS]. An applied op is re-emitted to this file
    system's subscribers — that is how fsnotify watchers on a replica
    observe remote changes; the caller must guard against replication
    echo. A replayed [Mkdir] goes through {!set_mkdir_policy} like a
    local one. With [cursor], an entry op
    ([Mkdir]/[Create]/[Write]/[Unlink]) in the directory the
    cursor's previous op resolved reuses that directory instead of
    walking from the root — the {!opendir} of a replicated commit. The
    cursor is trusted only while that directory is live, no rename has
    happened and its walk crossed no symlink; keep one per run of ops
    and drop it. *)

(** {1 Directories} *)

val mkdir : ?mode:int -> t -> cred:Cred.t -> Path.t -> (unit, Errno.t) result
val mkdir_p : ?mode:int -> t -> cred:Cred.t -> Path.t -> (unit, Errno.t) result

val rmdir : ?recursive:bool -> t -> cred:Cred.t -> Path.t -> (unit, Errno.t) result
(** [recursive] (default false) removes the whole subtree depth-first,
    emitting one op per removed entry — the paper specifies that
    removing a switch directory is "automatically recursive". *)

val readdir : t -> cred:Cred.t -> Path.t -> (string list, Errno.t) result
(** Entry names, sorted, without ["."] and [".."]. *)

(** {1 Files} *)

val create_file :
  ?mode:int -> t -> cred:Cred.t -> Path.t -> (unit, Errno.t) result
(** Create an empty regular file; [EEXIST] if anything is already
    there. *)

val read_file : t -> cred:Cred.t -> Path.t -> (string, Errno.t) result

val set_generator :
  t -> Path.t -> (unit -> string) -> (unit, Errno.t) result
(** Turn an existing regular file into a procfs-style synthetic node:
    every {!read_file} of it returns [gen ()] computed at read time
    instead of stored bytes. The node keeps reporting size 0 (as /proc
    files do), generation emits no mutation ops, and permissions are
    still enforced on the node itself. Generators are per-inode, so
    unlinking the file retires them. [pread] through a descriptor is
    not interposed — synthetic nodes are whole-file reads. *)

val write_file : t -> cred:Cred.t -> Path.t -> string -> (unit, Errno.t) result
(** The [echo data > file] equivalent: create the file if missing,
    truncate, write. The path is walked once, also for a new file. *)

val append_file : t -> cred:Cred.t -> Path.t -> string -> (unit, Errno.t) result

val truncate : t -> cred:Cred.t -> Path.t -> int -> (unit, Errno.t) result

val unlink : t -> cred:Cred.t -> Path.t -> (unit, Errno.t) result

(** {1 Directory handles ([openat]-style)}

    POSIX [openat(2)] and the rest of the [*at] family exist to resolve
    a directory once and then act relative to it. A {!dir} is that
    resolved directory: its node plus its canonical path. A caller
    making several calls into one directory (a flow directory's dozen
    field files) walks the path once in {!opendir} instead of once per
    call.

    The contract:
    - {b Lifetime.} A handle serves one caller's run of calls — at
      most one driver flush — and is then dropped; it is not kept
      across runs. It names the directory by its canonical path at
      {!opendir}, as a descriptor does ({!fd_path}), and journals under
      that path: it must not outlive a rename of the directory or of an
      ancestor, after which its calls would act at the new place but
      journal the old one.
    - {b Crossings.} {!opendir} and every [*_at] call each charge one
      kernel crossing, like the path-based call they replace, so the
      §8.1 cost model is unchanged; only the components walked
      ([vfs.components]) drop.
    - {b Permissions.} Each [*_at] call checks the held directory: +x
      to look an entry up, +r to list it, +w to add or remove an entry,
      and [EROFS] on a read-only file system. The ancestors' +x was
      checked by {!opendir}.
    - {b Names.} [rel] is one entry name, or several separated by ['/']
      to reach below a subdirectory (["counters/packets"]); an empty,
      ["."] or [".."] component is [EINVAL]. The walk from the handle is
      the path walk started at the held directory, so a symlink on the
      way is followed as from the root, under the same floor check.
    - {b Journal.} Mutations journal the canonical path, so fsnotify and
      the distributed-FS layer see exactly the {!Op.t} stream the
      path-based call would have produced.
    - {b Removal.} Once the directory is removed, every [*_at] call on
      a handle to it fails with [ENOENT]. *)

type dir

val opendir : t -> cred:Cred.t -> Path.t -> (dir, Errno.t) result
(** Resolve a directory (following symlinks, +x on every ancestor);
    [ENOTDIR] if the path names anything else. One crossing. *)

val dir_ino : dir -> int
(** The directory's inode number: a re-created directory at the same
    path is a different inode. *)

val readdir_at : t -> cred:Cred.t -> dir -> (string list, Errno.t) result
(** {!readdir} of the held directory. *)

val readdir_ino_at :
  t -> cred:Cred.t -> dir -> ((string * int) list, Errno.t) result
(** {!readdir_at} with each entry's inode number, as POSIX [readdir]'s
    [d_ino] gives it: one crossing tells every re-created entry from
    the one listed before, with no [stat] per entry. *)

val read_file_at : t -> cred:Cred.t -> dir -> string -> (string, Errno.t) result

val write_file_at :
  t -> cred:Cred.t -> dir -> string -> string -> (unit, Errno.t) result
(** {!write_file} relative to the handle: create if missing, truncate,
    write. *)

val unlink_at : t -> cred:Cred.t -> dir -> string -> (unit, Errno.t) result

val mkdir_at : t -> cred:Cred.t -> dir -> string -> (unit, Errno.t) result
(** {!mkdir} (mode [0o755]) relative to the handle. *)

(** {1 File descriptors} *)

type open_flag = O_rdonly | O_wronly | O_rdwr | O_creat | O_trunc | O_append | O_excl

val openfile :
  ?mode:int -> t -> cred:Cred.t -> Path.t -> open_flag list -> (fd, Errno.t) result

val close : t -> fd -> (unit, Errno.t) result

val pread : t -> fd -> off:int -> len:int -> (string, Errno.t) result
(** Short reads at end-of-file; [""] at or past EOF. *)

val pwrite : t -> fd -> off:int -> string -> (int, Errno.t) result

val fd_path : t -> fd -> (Path.t, Errno.t) result
(** The canonical path the descriptor was opened at. *)

(** {1 Links and renames} *)

val symlink : t -> cred:Cred.t -> target:string -> Path.t -> (unit, Errno.t) result
val readlink : t -> cred:Cred.t -> Path.t -> (string, Errno.t) result
val rename : t -> cred:Cred.t -> src:Path.t -> dst:Path.t -> (unit, Errno.t) result

(** {1 Metadata} *)

val stat : t -> cred:Cred.t -> Path.t -> (stat, Errno.t) result
(** Follows symlinks. *)

val lstat : t -> cred:Cred.t -> Path.t -> (stat, Errno.t) result

val kind_of :
  ?follow:bool -> t -> cred:Cred.t -> Path.t -> (kind, Errno.t) result
(** The kind of the object at this path, with the full errno: [ENOENT],
    [EACCES], [ENOTDIR], [ELOOP]… are all distinguishable, unlike the
    bool helpers below. [follow] (default true) follows a final
    symlink; with [~follow:false] the answer can be [Symlink]. *)

val exists : t -> cred:Cred.t -> Path.t -> bool
(** Sugar over {!kind_of} that conflates {e every} failure: a path the
    credential may not traverse ([EACCES]) is reported exactly like a
    missing one ([ENOENT]). Use {!kind_of} when the difference matters. *)

val is_dir : t -> cred:Cred.t -> Path.t -> bool
(** Same conflation caveat as {!exists}. *)

val chmod : t -> cred:Cred.t -> Path.t -> int -> (unit, Errno.t) result
val chown : t -> cred:Cred.t -> Path.t -> uid:int -> gid:int -> (unit, Errno.t) result

val access : t -> cred:Cred.t -> Path.t -> Perm.access -> (unit, Errno.t) result
(** [EACCES] if the credential lacks the access under mode bits + ACL. *)

val canonicalize : t -> cred:Cred.t -> Path.t -> (Path.t, Errno.t) result
(** Resolve all symlinks; the result names the same object with a
    symlink-free path. *)

(** {1 Extended attributes (paper §5.1)} *)

val setxattr : t -> cred:Cred.t -> Path.t -> name:string -> value:string -> (unit, Errno.t) result
val getxattr : t -> cred:Cred.t -> Path.t -> name:string -> (string, Errno.t) result
val listxattr : t -> cred:Cred.t -> Path.t -> (string list, Errno.t) result
val removexattr : t -> cred:Cred.t -> Path.t -> name:string -> (unit, Errno.t) result

(** {1 ACLs (paper §5.1)} *)

val set_acl : t -> cred:Cred.t -> Path.t -> Acl.t -> (unit, Errno.t) result
val get_acl : t -> cred:Cred.t -> Path.t -> (Acl.t, Errno.t) result

(** {1 Whole-tree helpers} *)

type fold_action = [ `Continue | `Skip_subtree | `Stop ]

val fold :
  ?follow:bool -> t -> cred:Cred.t -> Path.t -> init:'acc ->
  ('acc -> Path.t -> stat -> 'acc * fold_action) ->
  ('acc, Errno.t) result
(** Depth-first pre-order traversal with an accumulator and early
    stop. The visitor decides, per object, whether to [`Continue] into
    its children, [`Skip_subtree] (prune below a directory), or [`Stop]
    the whole traversal; the accumulator as of the stop is returned.
    [follow] (default false) applies only to the starting path; child
    symlinks are never followed, so the traversal is a finite tree even
    with symlink cycles. Children are visited in sorted name order.
    Costs exactly one kernel crossing regardless of subtree size.
    {!tree} is implemented on this. *)

val tree : t -> cred:Cred.t -> Path.t -> (string, Errno.t) result
(** An ASCII rendering of the subtree, in the style of tree(1) — used to
    reproduce the paper's Figure 2/3 listings. *)

val size_info : t -> int * int
(** [(objects, bytes)] currently stored. *)
