(** The discrete-event network simulator: switches, hosts, links, and a
    time-ordered event queue moving frames between them.

    Time is simulated seconds. Every frame transmission is scheduled at
    the sending time plus the link latency; [step]/[run] drain the
    queue deterministically (FIFO among same-time events). *)

type t

type endpoint =
  | Sw of int64 * int     (** (dpid, port) *)
  | Hst of string         (** a host's single NIC *)

val create : unit -> t
(** Every link has a one-way latency of 100 µs. *)

val now : t -> float

(** {1 Population} *)

val add_switch : t -> Sim_switch.t -> unit
val add_host : t -> Sim_host.t -> unit

val switch : t -> int64 -> Sim_switch.t option
val host : t -> string -> Sim_host.t option
val switches : t -> Sim_switch.t list
val hosts : t -> Sim_host.t list

val datapath_cost : t -> Flow_table.Cost.t
(** A fresh aggregate of every switch's datapath lookup counters (a
    snapshot — later lookups are not reflected in the returned value). *)

val link : t -> endpoint -> endpoint -> unit
(** Connect two endpoints with a bidirectional link. Linking a switch
    port that does not exist yet creates it. *)

val unlink : t -> endpoint -> unit
(** Remove the link at this endpoint (both directions); the switch ports
    involved go carrier-down. *)

val set_link_up : t -> endpoint -> bool -> unit
(** Fail/restore a link without removing it. *)

val peer_of : t -> endpoint -> endpoint option
(** Ground-truth topology — what LLDP discovery should converge to. *)

val link_endpoints : t -> (endpoint * endpoint) list
(** Every link once (canonical direction). *)

(** {1 Controller attachment} *)

val set_controller_sink : t -> int64 -> (Sim_switch.effect_ -> unit) -> unit
(** Where a switch's packet-in effects go (normally its {!Of_agent}). *)

val transmit : t -> dpid:int64 -> out_port:int -> Packet.Eth.t -> unit
(** Schedule a frame leaving a switch port (used by agents for
    packet-out, and internally for forwarding). *)

val send_from_host : t -> string -> Packet.Eth.t list -> unit
(** Put host-originated frames on the host's link. *)

(** {1 The clock} *)

val step : t -> bool
(** Process all events at the next scheduled time; false when the queue
    is empty. Flow timeouts are processed as time advances. *)

val run : t -> unit
(** Drain the event queue (bounded at 1,000,000 steps). *)

val run_until : t -> (unit -> bool) -> bool
(** Step until the predicate holds or the queue empties (bounded at
    1,000,000 steps); returns whether the predicate held. *)

val advance_idle : t -> float -> unit
(** Advance the clock by [dt] even with no events pending (drives
    timeout expiry in quiet networks). *)

val pending_events : t -> int

val stats : t -> int * int
(** (frames delivered, frames dropped on dead links). *)
