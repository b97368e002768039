(** A simulated OpenFlow switch: ports, one or more flow tables, packet
    buffers, and OF-semantics forwarding. This is the hardware yanc's
    drivers program.

    The switch itself is protocol-neutral — it exposes logical
    operations (flow-mod, port-mod, stats) and produces logical effects;
    {!Of_agent} wraps it with an OpenFlow 1.0 or 1.3 wire endpoint. *)

type t

(** What handling one frame caused. Transmissions carry the egress port;
    the embedding {!Network} turns them into link deliveries. *)
type effect_ =
  | Transmit of { out_port : int; frame : Packet.Eth.t }
  | Deliver_to_controller of {
      in_port : int;
      reason : Openflow.Of_types.packet_in_reason;
      buffer_id : int32 option;
      data : string;       (** frame bytes, truncated to miss_send_len *)
      total_len : int;
    }

val create :
  ?n_tables:int -> ?n_buffers:int -> ?miss_send_len:int ->
  ?strategy:Flow_table.strategy -> ?n_ports:int -> dpid:int64 -> unit -> t
(** A switch with ports numbered 1..n_ports (default 4), each with a MAC
    derived from the dpid. [n_tables] defaults to 1 (an OF 1.0-style
    single-table switch); give 4 for an OF 1.3-style pipeline.
    [miss_send_len] defaults to 0xffff — the "send whole frames" value
    controllers configure — so table misses are not buffered unless a
    smaller limit is given. *)

val dpid : t -> int64

val datapath_cost : t -> Flow_table.Cost.t
(** The lookup counters shared by every table of this switch's
    pipeline. *)

val n_tables : t -> int
val n_buffers : t -> int
val capabilities : t -> Openflow.Of_types.Capabilities.t

(** {1 Ports} *)

val ports : t -> Openflow.Of_types.Port_info.t list
val port : t -> int -> Openflow.Of_types.Port_info.t option
val add_port : t -> ?speed_mbps:int -> int -> unit
val remove_port : t -> int -> unit

val set_admin_down : t -> int -> bool -> unit
(** Administratively disable/enable a port (OF port-mod). A down port
    neither transmits nor receives. *)

val set_link_down : t -> int -> bool -> unit
(** Carrier loss, driven by the {!Network} when links fail. *)

val port_stats : t -> int option -> Openflow.Of_types.Port_stats.t list

(** {1 QoS queues}

    Per-port token-bucket queues targeted by the
    {!Openflow.Action.Enqueue} action (a feature the paper's prototype
    lists as not yet implemented). Queue configuration is out-of-band,
    as it was for OpenFlow 1.0 hardware. *)

val add_queue : t -> port:int -> queue_id:int -> rate_mbps:int -> unit
(** Create (or reconfigure) a queue with a rate limit; the bucket allows
    a burst of one second's worth. *)

type queue_stats = {
  queue_id : int;
  rate_mbps : int;
  tx_packets : int64;
  tx_bytes : int64;
  dropped : int64;
}

val queue_stats : t -> port:int -> queue_stats list

val on_port_change :
  t -> (Openflow.Of_types.port_status_reason -> Openflow.Of_types.Port_info.t -> unit) -> unit
(** Register the agent callback invoked on any port add/delete/modify. *)

(** {1 Flow tables} *)

val flow_add :
  t -> ?table_id:int -> now:float ->
  of_match:Openflow.Of_match.t -> priority:int ->
  actions:Openflow.Action.t list ->
  ?cookie:int64 -> ?idle_timeout:int -> ?hard_timeout:int ->
  ?notify_removal:bool -> unit -> (unit, string) result

val flow_modify :
  t -> ?table_id:int -> now:float ->
  of_match:Openflow.Of_match.t -> priority:int ->
  actions:Openflow.Action.t list ->
  ?cookie:int64 -> ?idle_timeout:int -> ?hard_timeout:int ->
  ?notify_removal:bool -> unit -> (unit, string) result
(** Modify-or-add, per OpenFlow MODIFY semantics: replace the actions of
    every entry whose match equals [of_match], or, when there is none, add an
    entry exactly as {!flow_add} would. *)

val flow_delete :
  t -> ?table_id:int -> ?strict:bool -> ?priority:int ->
  of_match:Openflow.Of_match.t -> unit -> Flow_table.entry list
(** Removed entries (for flow-removed notifications). [table_id] absent
    means all tables; [strict]/[priority] select DELETE_STRICT
    semantics, see {!Flow_table.delete}. *)

val flow_stats :
  t -> ?table_id:int -> ?now:float -> of_match:Openflow.Of_match.t -> unit ->
  (int * Flow_table.entry) list
(** Matching entries with their table id. With [now], entries past
    their timeout are excluded even before an expiry sweep reaps them
    (lookup-side expiry): the reply reflects what the datapath would
    actually match, which resync diffs rely on. *)

val table : t -> int -> Flow_table.t option

val expire_flows : t -> now:float -> (int * Flow_table.entry) list
(** Advance timeout processing; returns expired entries (with table id)
    whose [notify_removal] handling is the agent's job. *)

val has_timed_flows : t -> bool
(** Some installed entry carries an idle or hard timeout, i.e. an
    {!expire_flows} sweep could actually reap something — schedulers
    use this to keep only such switches on a periodic expiry tick. *)

(** {1 The data path} *)

val receive_frame : t -> now:float -> in_port:int -> Packet.Eth.t -> effect_ list
(** Run one frame through the table pipeline: the first table, in
    order, holding a match applies its actions (goto-table is not
    modelled); on a miss in every table, buffer the frame and emit
    [Deliver_to_controller] (packet-in). Frames arriving on down ports
    are dropped. *)

val inject :
  t -> now:float -> buffer_id:int32 option -> data:string ->
  in_port:int option -> actions:Openflow.Action.t list -> effect_ list
(** Packet-out from the controller: take the buffered frame (or the raw
    [data] when unbuffered) and apply [actions]. *)

val pop_buffer : t -> int32 -> (int * Packet.Eth.t) option
(** Remove and return a buffered (in_port, frame) pair. *)
