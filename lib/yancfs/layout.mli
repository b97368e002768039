(** Path builders for the yanc hierarchy (paper Figures 2 and 3).

    Every function takes the yanc [root] it operates under, because a
    network view has exactly the same structure nested at
    [<root>/views/<name>] — applications handed a view root use the
    identical code paths as applications on the master tree (paper §4.2).

    The tree itself (its names, the children a mkdir gives each node, its
    records' fields) is declared once, in {!Schema}; these builders take
    their names from it. [yancctl schema] prints it: a generated
    Figure 3. *)

val default_root : Vfs.Path.t
(** [/net] *)

val hosts_dir : root:Vfs.Path.t -> Vfs.Path.t
val switches_dir : root:Vfs.Path.t -> Vfs.Path.t

val host : root:Vfs.Path.t -> string -> Vfs.Path.t
val view : root:Vfs.Path.t -> string -> Vfs.Path.t
(** A view's directory is itself a yanc root. *)

val switch : root:Vfs.Path.t -> string -> Vfs.Path.t
val switch_attr : root:Vfs.Path.t -> string -> string -> Vfs.Path.t
(** e.g. [switch_attr ~root "sw1" "id"]. *)

val flows_dir : root:Vfs.Path.t -> string -> Vfs.Path.t
val flow : root:Vfs.Path.t -> switch:string -> string -> Vfs.Path.t
val flow_attr : root:Vfs.Path.t -> switch:string -> flow:string -> string -> Vfs.Path.t
val flow_counters : root:Vfs.Path.t -> switch:string -> string -> Vfs.Path.t

val ports_dir : root:Vfs.Path.t -> string -> Vfs.Path.t
val port : root:Vfs.Path.t -> switch:string -> int -> Vfs.Path.t

val port_no_of_name : string -> int option
val port_attr : root:Vfs.Path.t -> switch:string -> port:int -> string -> Vfs.Path.t
val port_counters : root:Vfs.Path.t -> switch:string -> int -> Vfs.Path.t

val events_dir : root:Vfs.Path.t -> string -> Vfs.Path.t

val packet_out_dir : root:Vfs.Path.t -> string -> Vfs.Path.t
(** Extension over the paper's Figure 3: a request spool symmetric to
    [events/] — applications create numbered directories describing
    packets to emit; the driver sends and removes them. *)

val event_buffer : root:Vfs.Path.t -> switch:string -> string -> Vfs.Path.t
(** [event_buffer ~root ~switch app] — the app's private packet-in
    buffer. *)

(** {1 Tracer correlation keys}

    The packet-in trace crosses components through the file system, so
    trace ids travel as {!Telemetry.Tracer.stamp} keys derived from the
    objects both sides see: the event sequence number between driver and
    app, the flow path between app and driver. *)

val trace_key_event : int -> string
(** ["ev:<seq>"] *)

val trace_key_flow : switch:string -> string -> string
(** ["flow:<switch>/<flow>"] *)

(** {1 /yanc/cluster — sharded multi-node control (see [Yanc.Cluster])}

    The shard map and membership live {e in the file system}: a node's
    lease is a file holding its expiry on the shared clock, a shard
    record names the owner that claimed the switch. Both replicate
    through {!Dfs.Cluster}, so every node reads cluster state the same
    way it reads network state. *)

val cluster_nodes_dir : Vfs.Path.t
(** [/yanc/cluster/nodes] — one entry per member. *)

val cluster_lease : string -> Vfs.Path.t
(** [/yanc/cluster/nodes/<node>/lease] — expiry timestamp (sim clock);
    a member is alive while its lease is unexpired. *)

val cluster_shard : int64 -> Vfs.Path.t
(** [/yanc/cluster/shards/<dpid>] — "owner replica,replica" as written
    by the claiming node. *)

val node_proc_root : string -> Vfs.Path.t
(** [/yanc/nodes/<node>/.proc] — where a cluster node mounts its
    per-node procfs. *)

val cluster_proc_root : Vfs.Path.t
(** [/yanc/cluster/.proc] — the fleet-wide rollup (merged [metrics],
    cluster [health]), mounted on every replica so one [cat] on any
    node answers for the whole cluster. *)

val blackbox_dumps_dir : Vfs.Path.t
(** [/yanc/blackbox] — flight-recorder dumps written on takeover or a
    violated invariant; ordinary replicated files, so a node's
    post-mortem survives the node. *)

val blackbox_dump : node:string -> int -> Vfs.Path.t
(** [/yanc/blackbox/<node>-<n>] — the [n]th dump of a node's box. *)

(** {1 /yanc/policy — the policy engine's file interface}

    Network policy is files too: each file under [/yanc/policy/] holds
    one policy program in the concrete syntax; the engine watches the
    directory, composes every readable file in parallel (name order),
    and installs the compiled rules as [pol_*] flows under every
    switch's [flows/]. Compile errors for a file land beside it in
    [.errors/<name>] — never tearing the engine down. *)

val policy_root : Vfs.Path.t
(** [/yanc/policy] *)

val policy_file : string -> Vfs.Path.t

val policy_errors_dir : Vfs.Path.t
(** [/yanc/policy/.errors] — one file per failing policy file (plus
    [_policy] for errors of the composed whole); removed when the
    source recompiles cleanly. *)

val policy_error : string -> Vfs.Path.t

val proc_policy : proc:Vfs.Path.t -> Vfs.Path.t
(** [<proc>/policy] — the engine's status report (files, rules,
    errors, last compile). *)

(** {1 /yanc/.proc — the procfs analog (see {!Procdir})} *)

val default_proc_root : Vfs.Path.t
(** [/yanc/.proc] — deliberately outside the /net tree: it describes
    the controller, not the network, so views never replicate it. *)

val proc_metrics : proc:Vfs.Path.t -> Vfs.Path.t
val proc_trace_pipe : proc:Vfs.Path.t -> Vfs.Path.t

val proc_health : proc:Vfs.Path.t -> Vfs.Path.t
(** [<proc>/health] — the {!Telemetry.Health} probe report, evaluated
    against this proc tree's registry (or the merged rollup under
    {!cluster_proc_root}) at read time. *)

val proc_blackbox : proc:Vfs.Path.t -> Vfs.Path.t
(** [<proc>/blackbox] — the live flight-recorder window; non-consuming
    (unlike [trace_pipe]). *)

val proc_fsck : proc:Vfs.Path.t -> Vfs.Path.t
(** [<proc>/fsck] — the hardware ≡ file system ≡ policy report
    ([Yanc.Audit]), computed at read time: per switch under a
    controller's proc root, per shard under {!cluster_proc_root}. *)

val proc_apps_dir : proc:Vfs.Path.t -> Vfs.Path.t
val proc_app : proc:Vfs.Path.t -> string -> Vfs.Path.t
val proc_app_stat : proc:Vfs.Path.t -> string -> Vfs.Path.t
val proc_switches_dir : proc:Vfs.Path.t -> Vfs.Path.t
val proc_switch : proc:Vfs.Path.t -> string -> Vfs.Path.t
val proc_switch_stat : proc:Vfs.Path.t -> string -> Vfs.Path.t
