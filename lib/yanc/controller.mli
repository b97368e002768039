(** The assembled yanc controller (Figure 1): one VFS hosting the /net
    tree, protocol drivers attached to every switch in a simulated
    network, and a scheduler of file-system-only applications.

    A {e round} is: sync the FS clock to simulation time, run the
    control plane (drivers ⇄ agents), run due applications, run the
    control plane again (so writes made by apps reach hardware within
    the round), then drain the data plane. [run_for] repeats rounds
    while advancing idle time, which drives cron jobs, LLDP probes and
    flow timeouts. *)

type version = V10 | V13

type t

val create :
  ?root:Vfs.Path.t -> ?proc_root:Vfs.Path.t -> ?fs:Vfs.Fs.t ->
  ?tracing:bool ->
  ?tuning:Driver.Driver_intf.tuning -> ?seed:int ->
  net:Netsim.Network.t -> unit -> t
(** Builds the telemetry hub over the file system's registry
    ({!Vfs.Fs.registry} of [fs], default a fresh file system), so the
    two always report into one registry. Tracing is on unless
    [tracing:false]. Threads the hub through the
    drivers, agents and scheduler, registers gauges sampling the
    netsim's datapath and link counters plus driver liveness
    ([driver.attached_switches]/[driver.dead_switches], the health
    probes' inputs), and mounts the [/yanc/.proc] subtree (override
    with [proc_root] — cluster nodes mount theirs at
    [/yanc/nodes/<name>/.proc]) on the controller's VFS. [tuning] and
    [seed] set the drivers' keepalive/backoff policy (see
    {!Driver.Manager.create}). *)

val fs : t -> Vfs.Fs.t

val telemetry : t -> Telemetry.t

val proc : t -> Yancfs.Procdir.t

val scheduler : t -> Scheduler.t

val datapath_cost : t -> Netsim.Flow_table.Cost.t
(** Aggregated switch datapath lookup counters (classifier subtables
    visited, microflow hits/misses, invalidations) — a snapshot, see
    {!Netsim.Network.datapath_cost}. *)

val yfs : t -> Yancfs.Yanc_fs.t
val net : t -> Netsim.Network.t
val manager : t -> Driver.Manager.t

val attach_switches : ?version:version -> t -> unit
(** Attach a driver to every switch currently in the network. *)

val attach : t -> dpid:int64 -> version:version -> unit
(** Also publishes [/yanc/.proc/switches/<dpid>/stat]. *)

val add_app : t -> Apps.App_intf.t -> unit
(** Also publishes [/yanc/.proc/apps/<name>/stat]. *)

val add_policy_engine : ?dir:Vfs.Path.t -> t -> Apps.Policy_engine.t
(** Start the policy engine ({!Apps.Policy_engine}) over this
    controller's tree and publish its [/yanc/.proc/policy] report.
    [dir] defaults to [/yanc/policy]. *)

val now : t -> float

val step : t -> unit
(** One round (no idle-time advance). *)

val run_for : ?tick:float -> t -> float -> unit
(** Simulate for a duration of simulated seconds: rounds interleaved
    with data-plane draining; when the network goes quiet, idle time
    advances by [tick] (default 0.05 s). *)

val run_until :
  ?tick:float -> ?timeout:float -> t -> (unit -> bool) -> bool
(** Like {!run_for} but stops (true) as soon as the predicate holds;
    false on [timeout] (default 30 simulated seconds). *)
