(** A distributed file system layered over N {!Vfs.Fs.t} replicas —
    yanc's path to a distributed controller (paper §6): every controller
    node mounts a replica; a flow entry written on one machine "will
    then show up on the device" hosting the driver.

    Replication consumes each origin's mutation stream (the same stream
    fsnotify uses) and replays it on the other replicas according to the
    {!Consistency.t} model; replayed ops are re-emitted locally so
    watchers on a replica fire as if the write were local. Replay is
    idempotent, so partitioned nodes reconcile by draining their queue
    when the partition heals.

    Replication carries ops, not policies: a directory's typed children
    ({!Vfs.Fs.set_mkdir_policy}) are not in the op stream, and each
    replica derives them when it replays the parent's [Mkdir]. Every
    replica must therefore carry the same per-filesystem policies — for
    a yanc tree, each node is mounted with [Yancfs.Yanc_fs.create]. A
    replica without them diverges silently: it lacks the children, and
    ops beneath them fail there and count in [dfs.replay_failed].

    The cluster has a clock ({!advance}) driving delayed visibility;
    under [Sequential] the ops apply inside the originating write. *)

type t

(** {1 Counters}

    The replication stream reports into replica 0's
    {!Vfs.Fs.registry} — one seat, so a rollup over every replica's
    registry never double-counts it. Counters:
    - [dfs.ops_originated], [dfs.ops_replicated];
    - [dfs.ops_coalesced]: queued ops superseded by a later write to
      the same path before their visibility time (last-write-wins);
    - [dfs.ops_synced] ({!sync_subtree}), [dfs.ops_dropped]
      ({!drop_origin_pending});
    - [dfs.replay_failed]: replicated ops a replica refused
      ({!Vfs.Fs.replay} returned an error, e.g. [EROFS] on a read-only
      replica); the [dfs_replay_failed] health probe is [Crit] above 0.

    Gauges, sampled state: [dfs.writer_blocked_s] (total time writers
    stalled in Sequential rounds), [dfs.max_queue] (high-water mark of
    pending replications), [dfs.pending] and [dfs.nodes]. *)

val create :
  ?consistency:Consistency.t -> ?rtt:float -> n:int -> unit -> t
(** [n] replicas (default consistency {!Consistency.nfs}, rtt 1 ms).
    Each replica is a fresh file system with its own registry and no
    policies; mount the same layer (e.g. [Yancfs.Yanc_fs.create]) on
    every {!node} before writing through any of them. *)

val of_replicas : ?consistency:Consistency.t -> ?rtt:float -> Vfs.Fs.t list -> t
(** Wrap existing file systems (e.g. ones that already host /net). They
    must carry the same per-filesystem policies, mounted before or
    after this call. *)

val node : t -> int -> Vfs.Fs.t
val nodes : t -> Vfs.Fs.t list
val size : t -> int
val consistency : t -> Consistency.t

val now : t -> float
val advance : t -> float -> unit
(** Move the cluster clock forward and apply every replication whose
    visibility time has arrived. *)

val flush : t -> unit
(** Apply everything pending regardless of time — an fsync/umount. *)

val converged : t -> bool
(** No replications pending and no partitioned queue non-empty. *)

val pending : t -> int

val stashed : t -> int -> int
(** Ops held in node [i]'s partition stash (both directions) — lets a
    caller treat a permanently dead node's stash as out of scope when
    judging convergence. *)

val set_partitioned : t -> int -> bool -> unit
(** Cut a node off: ops to and from it queue. Healing replays both
    directions (last-writer-wins at the file level). *)

(** {1 Per-object consistency requirements (paper §5.1)}

    "We plan on utilizing [extended attributes] to specify consistency
    requirements for various network resources." An object (or any of
    its ancestors — the nearest annotation wins) carrying the
    [user.consistency] xattr overrides the cluster's model for ops under
    it: ["strict"] replicates synchronously even in an eventually
    consistent cluster; ["relaxed"] defers replication even under
    [Sequential]. *)

val consistency_xattr : string
(** ["user.consistency"] *)

val effective_consistency : t -> origin:int -> Vfs.Path.t -> Consistency.t
(** The model that will govern a write at this path (exposed for tests
    and introspection). *)

val partitioned : t -> int -> bool

(** {1 Sharded replication}

    The partitioned-ownership optimisation: a routing policy narrows
    where an op travels, so a sharded subtree's writes ride the op-log
    only to its replica set instead of every node. *)

val set_route : t -> (Vfs.Op.t -> origin:int -> int list option) option -> unit
(** Install (or clear) the routing policy. The policy returns the
    replica indexes an op should reach ([None] = every peer, the
    default); the origin is always excluded. *)

val set_tracing :
  t ->
  ((int -> Telemetry.Tracer.t option) * (Vfs.Op.t -> string option)) option ->
  unit
(** Cross-node trace propagation. [(tracer, key_of)]: [tracer i] is
    replica [i]'s span tracer (None when a replica has no controller);
    [key_of op] is the correlation key the applying side should
    re-stamp (e.g. a flow path key, so the owning node's driver resumes
    the trace at install time). With hooks installed, an op originated
    inside an ambient trace records a [dfs.forward] span at the origin
    and carries its trace context [(id, origin time, origin round)] to
    every target, where the replay runs as a [dfs.apply] span under the
    {e originating} trace id — one trace spanning both nodes' rings. *)

val set_prefix_consistency : t -> (string * Consistency.t) list -> unit
(** Path-prefix consistency overrides, consulted before any xattr
    probe: one string compare per op instead of an ancestor walk —
    how the cluster pins [/yanc/cluster] metadata to [Sequential]
    while flow state stays on the delayed op-log. *)

val set_xattr_probing : t -> bool -> unit
(** Disable the per-op xattr ancestor probe entirely (hot-path mode:
    prefix overrides only). Default [true]. *)

val sync_subtree : t -> from_:int -> to_:int -> Vfs.Path.t -> int
(** Anti-entropy state transfer: materialise [from_]'s current state
    under a path onto [to_] (dirs and files with their owners, file
    contents, symlinks), replayed
    through the normal apply path so watchers on the target fire.
    Returns the number of ops synthesised. *)

val drop_origin_pending : t -> int -> int
(** Drop every queued op originated by this node — the op-log tail that
    dies with a killed process. Returns the number dropped. *)

val replay_busy_s : t -> int -> float
(** CPU seconds replica [i] has spent applying ops from peers (replay +
    sync) — the replication share of a node's busy time. *)
