(** The sharded multi-node controller (paper §6): N {!Controller}s,
    one per {!Dfs.Cluster} replica, with switch ownership partitioned
    by the rendezvous shard map ({!Dfs.Shard_map}) and every piece of
    coordination state — leases, shard records — held in the file
    system itself.

    Ownership: each node, on a reconcile beat, renews
    [/yanc/cluster/nodes/<name>/lease], derives the live membership
    from the lease files on its own replica, and attaches exactly the
    switches the shard map awards it, recording each claim in
    [/yanc/cluster/shards/<dpid>]. Cluster metadata is pinned
    [Sequential] (the consistent store); flow state rides the delayed,
    coalescing op-log, and only to the shard's replica set
    ([replication_factor]), so per-node replication work stays bounded
    as N grows.

    Failure: {!kill} freezes a node's loop, drops its un-flushed op-log
    tail and cuts its replica off. Its lease expires, survivors
    recompute the shard map, the runner-up claims each orphaned switch
    (state already on its replica), and the attach-time handshake's
    reconcile of the switch's own table brings hardware to the new
    owner's replica, strays included —
    takeover is lease expiry + reconcile beat + resync, all on the sim
    clock. *)

type t

val create :
  ?consistency:Dfs.Consistency.t ->
  ?replication_factor:int ->
  ?version:Controller.version ->
  ?tracing:bool ->
  ?tuning:Driver.Driver_intf.tuning ->
  ?seed:int ->
  n:int -> net:Netsim.Network.t -> unit -> t
(** Defaults: flow-state consistency [Eventual 0.05 s]; replication
    factor 2
    (clamped to [n]); tracing on ([tracing:false] builds every node's
    telemetry with the tracer off — the overhead-bench baseline).
    Every node's lease is seeded before the first beat so boot assigns
    shards against the full membership. Leases last 1 s and are renewed
    every 0.25 s; reconcile runs every 0.1 s. Drive it with
    {!run_for}/{!run_until}; ownership (attach/handshake) settles
    within the first reconcile beats.

    Observability wiring done here: each node's tracer gets its own
    trace/span id slice ([index * 2^40], cluster-unique ids); the DFS
    gets the per-replica tracer map and flow correlation key, so a
    write traced on node A replays on node B as a [dfs.apply] span
    under A's trace id and B's driver resumes it at install; lease
    renewal and reconcile run as spans, takeover runs as
    detect → re-own → resync spans sharing one trace per dead member;
    each claim after a death feeds the [cluster.takeover.latency]
    histogram (measured from the dead lease's recorded expiry); and
    every replica mounts the fleet rollup at [/yanc/cluster/.proc]
    (merged [metrics], cluster [health], the per-shard [fsck]). A
    failed coordination write (lease, shard claim, black box, proc
    mount) is logged and counted in that node's [cluster.fs_errors],
    which health judges Crit. *)

val dfs : t -> Dfs.Cluster.t
val net : t -> Netsim.Network.t
val size : t -> int
val controller : t -> int -> Controller.t
val name_of : t -> int -> string
val alive : t -> int -> bool
val live_indexes : t -> int list

val add_app : t -> (Controller.t -> Apps.App_intf.t) -> unit
(** Instantiate an app per node (each over that node's yfs/replica). *)

val step : ?tick:float -> t -> unit
(** One cluster round: every live node renews/reconciles (when due) and
    runs one controller round, then the data plane drains and the DFS
    clock catches up to sim time. [tick] (default 0.005 s) advances
    idle time when the network is quiet. *)

val run_for : ?tick:float -> t -> float -> unit
val run_until : ?tick:float -> ?timeout:float -> t -> (unit -> bool) -> bool

val kill : t -> int -> unit
(** Node death: freeze its loop (never stepped again), drop its queued
    op-log tail, partition its replica. Its switches stay frozen until
    lease expiry hands them to survivors. *)

val rollup_snapshot : t -> Telemetry.Registry.snapshot
(** The fleet-wide merged snapshot served at
    [/yanc/cluster/.proc/metrics]: live nodes' registries merged
    (counters summed, histograms bucket-wise) plus the cluster-global
    series [cluster.live_nodes], [cluster.nodes],
    [cluster.unowned_shards]. *)

(** {1 Accounting} *)

val busy_s : t -> int -> float
(** CPU seconds node [i] has consumed: its own loop
    plus its replica's replay share ({!Dfs.Cluster.replay_busy_s}).
    Nodes run on separate machines in the deployment this simulates,
    so cluster throughput is judged against [max_i busy_s] — the
    critical path — while the whole simulation shares one process. *)

val takeovers : t -> int -> int
(** Shards this node claimed after boot (takeover work, not initial
    assignment). *)

val node_installs : t -> int -> int
(** [driver.commit.adds] from node [i]'s registry. *)

val installs : t -> int

val dpid_of_op : Vfs.Op.t -> int64 option
(** The shard an op routes to: the switch whose [flows/] it lies at or
    below in the master tree [/net], as {!Yancfs.Schema} names it
    ([sw<dpid>]). [None] replicates the op to every node: everything
    else, a view's flows included. *)

(** {1 Invariants} *)

val owner_index : t -> int64 -> int option
(** The live node whose manager attaches this dpid, if any. *)

val unowned : t -> int64 list
(** Switches no live node attaches — empty once ownership has settled. *)

val shards : t -> Audit.shard list
(** Every switch as a shard: [Unowned], or [Owned] by the live node
    attaching it and judged by {!Audit.switch} against that node's
    replica. [/yanc/cluster/.proc/fsck] serves
    {!Audit.render_shards} of this. *)

val divergent : t -> Audit.shard list
(** The {!shards} that are not ok. Empty = every shard owned and
    hardware ≡ filesystem. *)

val converged : t -> bool
(** Every shard owned, every live driver Connected, replication quiet,
    and hardware ≡ filesystem — the takeover gate. *)
