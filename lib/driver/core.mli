(** The controller-side driver: {!Openflow.Msg.t} on one side, encoded
    in the switch's dialect, the yanc file system on the other (paper
    §4.1). One driver serves every wire version.

    Translation, in both directions:
    - handshake → the switch's directory, attribute files and ports
    - committed flow directories (version bumps) → flow-mod add;
      removed flow directories → flow-mod delete; parse failures →
      the flow's [error] file. Changes are tracked per flow key in a
      {!Commit_queue} (fsnotify events name the flow that changed) and
      flushed one batch per step, deletions before adds — O(dirty)
      per tick. One O(flows) sweep remains, for notify overflow (run
      against the driver's cache) and for the flow-stats reply every
      handshake asks for (run against the switch's own table).
    - [config.port_down] writes → port-mod
    - [packet_out/] spool entries → packet-out
    - packet-ins → always the {!Yancfs.Pktin} ring, and
      {!Yancfs.Eventdir.publish} into each subscribed application's
      buffer only while subscribers exist
    - port-status → port files; flow-removed (timeouts) → flow
      directory removal; periodic stats → [counters/] files

    The driver learns of file-system activity through fsnotify watches,
    like any other yanc application.

    The driver also owns the connection's survival
    ({!Driver_intf.status}): echo keepalives with a liveness timeout
    while connected, handshake retries under exponential backoff while
    reconnecting, and a flow-table reconcile after every handshake,
    first or not: the switch reports its table, flows it lacks or holds
    with another config are re-added and strays strictly deleted, all
    through the commit path (one exit per flow_mod kind). Commits wait
    until the report is in. After a re-handshake the reconcile is
    counted as a resync ({!Driver_intf.link_counters}). *)

type t

val create :
  ?wake:(unit -> unit) -> ?tuning:Driver_intf.tuning -> ?seed:int ->
  dialect:Openflow.Dialect.t -> yfs:Yancfs.Yanc_fs.t ->
  endpoint:Netsim.Control_channel.endpoint -> unit -> t
(** Sends hello + features-request immediately, encoded in [dialect].
    [wake] is fired whenever the driver's fsnotify queue gains an event
    — a parked driver must be re-stepped to see it ({!Manager} wires
    this into its runnable set). [tuning] sets the keepalive/backoff
    policy and the stats poll ([stats_interval], 0 to disable); [seed]
    drives the backoff jitter PRNG — the same seed reproduces the same
    retry schedule. *)

val step : t -> now:float -> unit
(** Drain the control channel and the fsnotify queue, run the
    keepalive/reconnect state machine, then reconcile. *)

val protocol : t -> string
(** The dialect's name, as recorded in the switch's [protocol] file. *)

val switch_name : t -> string option
(** Set once the handshake completes. *)

val connected : t -> bool

val status : t -> Driver_intf.status
(** Mirrored into the switch's [status] file on every transition. *)

val link_counters : t -> Driver_intf.link_counters

val next_due : t -> now:float -> float
(** Earliest sim time a step would act on its own (timers); [infinity]
    = fully event-driven, woken through the channel or the file system. *)

val pending : t -> bool
(** Queued work a step would process right now (fsnotify events, dirty
    flows/ports/spool). *)

val detach : t -> unit
(** Stop watching the file system (the switch directory stays). *)
