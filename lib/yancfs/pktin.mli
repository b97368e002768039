(** The batched packet-in fast path: a bounded ring of pooled event
    records between drivers and applications.

    The event-directory protocol (§3.5, {!Eventdir}) pays a dozen file
    crossings per event per subscriber — fine at whiteboard scale,
    ruinous in a datacenter packet-in storm. This ring is the
    shared-memory complement (the same bargain the paper strikes with
    libyanc in §8.1: keep the file system the API, move the bytes out
    of band): the driver {!publish}es O(1) into pooled mutable records,
    applications {!drain} up to a batch per scheduler wake, and
    records recycle through a {!Netsim.Pool} once every consumer has
    passed them — the steady-state storm path allocates nothing per
    event, which [netsim.pool.pktin.*] makes visible.

    Contract: a record handed to a drain callback is valid only for
    the duration of the callback — copy out anything kept. Slow
    consumers lose oldest events when the ring laps them (counted per
    consumer and in [driver.pktin.dropped]); like inotify overflow,
    losing events is explicit, never silent. Events remain visible in
    [/yanc/.proc] series ([driver.pktin.{published,drained,dropped}],
    batch-depth histogram [driver.pktin.batch]); {!Eventdir} remains
    the portable slow path (and the baseline the scale bench compares
    against). *)

type record = {
  mutable seq : int;
  mutable switch : string;
  mutable in_port : int;
  mutable reason : Openflow.Of_types.packet_in_reason;
  mutable buffer_id : int32 option;
  mutable total_len : int;
  mutable data : string;  (** raw frame bytes as decoded off the wire *)
  mutable at : float;     (** publish time (simulated) *)
}

type t

type consumer

val create : ?capacity:int -> telemetry:Telemetry.t -> unit -> t
(** [capacity] (default 16384) bounds retained-but-undrained events. *)

val subscribe : t -> consumer
(** Start consuming at the current tail (no replay of old events). *)

val unsubscribe : t -> consumer -> unit

val publish :
  t -> switch:string -> in_port:int ->
  reason:Openflow.Of_types.packet_in_reason -> buffer_id:int32 option ->
  total_len:int -> data:string -> at:float -> int
(** Append one event, returning its sequence number. The current trace
    is stamped under {!trace_key} of that sequence so consumers resume
    it. With no subscribers the event is counted and dropped without
    touching the ring. *)

val drain : t -> consumer -> max:int -> (record -> unit) -> int
(** Apply the callback to up to [max] pending events, oldest first;
    returns how many ran. Bounding the batch is what keeps one storm
    from monopolizing a scheduler tick. *)

val pending : t -> consumer -> int

val overruns : consumer -> int
(** Events this consumer lost to ring overflow. *)

val trace_key : int -> string
(** Correlation key ["pktin:<seq>"] for {!Telemetry.Tracer} resume —
    distinct from {!Layout.trace_key_event} so the ring and the event
    directories never cross their stamps. *)

val published : t -> int
val dropped : t -> int

val pool : t -> record Netsim.Pool.t
(** The record pool (its [netsim.pool.pktin.*] gauges are registered at
    {!create}). *)
