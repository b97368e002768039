(** Driver management: one driver per switch, chosen by protocol
    version, replaceable at runtime.

    "Nodes in such a system can therefore be gradually upgraded, live,
    to newer protocols" (paper §4.1): {!upgrade} tears down a switch's
    OF 1.0 driver+agent pair and attaches an OF 1.3 pair; because the
    file system holds the authoritative network state, the new driver
    re-reads it and reprograms the switch — applications never notice. *)

type version = Openflow.Dialect.t = V10 | V13
(** Re-exported so callers name it without reaching into the codecs. *)

type t

val create :
  ?tuning:Driver_intf.tuning -> ?seed:int -> yfs:Yancfs.Yanc_fs.t ->
  net:Netsim.Network.t -> unit -> t
(** [tuning] is the keepalive/backoff policy handed to every driver and
    agent attached through this manager; [seed] (with the dpid) derives
    each driver's backoff-jitter PRNG, so a run is reproducible from
    one number. *)

val attach : t -> dpid:int64 -> version:version -> unit
(** Connect a switch in the network to a fresh (driver, channel, agent)
    triple speaking the given version, replacing any existing
    attachment. *)

val detach : t -> dpid:int64 -> unit

val upgrade : t -> dpid:int64 -> version:version -> unit
(** Alias of {!attach} with intent: live protocol upgrade. The fresh
    driver's handshake asks the switch for its table and reconciles it
    with the file system, so the old driver's rules stay, and any rule
    no flow directory commits (a stray) is deleted. *)

val step : t -> now:float -> unit
(** One control-plane round over the {e runnable} switches only: step
    each runnable driver, then its agent, then the driver again (so
    request/reply pairs complete within a round). A switch is runnable
    when woken — channel bytes, fsnotify events, connection changes,
    fault-script installs — or when a driver/agent timer (keepalive,
    backoff, stats, flow expiry, delayed delivery, scripted fault) has
    come due; quiescent switches park on a timer heap, so a quiet tick
    over an 8k-switch fleet costs O(runnable + log timers), not
    O(attached). Observable as [driver.mgr.steps] vs
    [driver.mgr.stepped] and the [driver.mgr.{attached,runnable,timers}]
    gauges. *)

val run_control : ?rounds:int -> t -> now:float -> unit
(** Step several rounds (default 4) — enough to finish a handshake. *)

val driver_protocol : t -> dpid:int64 -> string option

val switch_name : t -> dpid:int64 -> string option

val attached : t -> int64 list

val channel :
  t -> dpid:int64 ->
  (Netsim.Control_channel.endpoint * Netsim.Control_channel.endpoint) option
(** The switch's control channel as [(agent side, driver side)] — the
    hook fault-injecting tests use ({!Netsim.Control_channel.set_faults}
    on either end). *)

val switch_status : t -> dpid:int64 -> Driver_intf.status option

val link_counters : t -> dpid:int64 -> Driver_intf.link_counters option

val statuses : t -> (int64 * Driver_intf.status) list
(** Ordered by dpid. *)

val any_dead : t -> bool
(** True when some driver has exhausted its reconnect budget —
    [yancctl counters] exits nonzero on this. *)
