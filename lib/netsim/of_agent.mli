(** The device-side OpenFlow endpoint: wraps one {!Sim_switch} with a
    wire-protocol agent speaking OF 1.0 or OF 1.3 over a
    {!Control_channel}. This is the firmware half of the paper's driver
    split — the controller-side halves live in the [driver] library and
    exchange only protocol bytes with this agent, so either side can be
    swapped per protocol version (paper §4.1).

    The agent answers hello/features/echo/barrier, applies flow-mods and
    port-mods, serves stats, forwards packet-outs to the data path, and
    pushes packet-ins, port-status and flow-removed notifications to the
    controller. It handles {!Openflow.Msg.t}; the dialect only picks
    the codec. *)

type t

val create :
  ?telemetry:Telemetry.t -> ?keepalive_interval:float ->
  dialect:Openflow.Dialect.t -> switch:Sim_switch.t ->
  endpoint:Control_channel.endpoint -> network:Network.t -> unit -> t
(** Registers the agent as the switch's controller sink in [network] and
    subscribes to port-change notifications. With [telemetry], each
    flow-mod Add resumes the trace stamped under {!trace_key_xid} of its
    xid and records a [switch.install] span — the last stage of the
    packet-in→install pipeline.

    [keepalive_interval] (default 0 = disabled) makes the agent send
    echo-requests on the sim clock. Installed flows survive a dead
    controller (fail-secure): the agent never clears state. *)

val trace_key_xid : int32 -> string
(** ["xid:<n>"] — the correlation key the controller-side driver stamps
    when it encodes a flow-mod, shared here because netsim cannot see
    the driver library. *)

val step : t -> now:float -> unit
(** Process all buffered controller messages and run flow-timeout
    expiry, emitting flow-removed messages for entries installed with
    [notify_removal]. Also fires due scripted channel faults, resets
    framing when the channel generation changed (a reconnect), and runs
    the keepalive when enabled. *)

val next_due : t -> now:float -> float
(** Earliest sim time at which {!step} would do something without new
    channel input: the keepalive timer when enabled, or [now] while any
    installed flow carries a timeout (expiry sweeps run per tick).
    [infinity] for a fully quiescent agent — combine with
    {!Control_channel.next_activity} of its endpoint to park it. *)

val keepalives_sent : t -> int
