(** A simulated end host with a single NIC: keeps an ARP cache, answers
    ARP and ping, runs a minimal DHCP client, accepts TCP SYNs on
    listening ports, and records what it receives — enough behaviour to
    exercise every system application the paper describes (ARP daemon,
    DHCP daemon, router, accounting).

    Hosts are passive values: [receive] and the send helpers return the
    frames to put on the wire; the {!Network} moves them. *)

type t

type ping_result = { dst : Packet.Ipv4_addr.t; seq : int; rtt : float }

val create : ?ip:Packet.Ipv4_addr.t -> name:string -> mac:Packet.Mac.t -> unit -> t

val name : t -> string
val mac : t -> Packet.Mac.t
val ip : t -> Packet.Ipv4_addr.t option

val arp_cache : t -> (Packet.Ipv4_addr.t * Packet.Mac.t) list

val listen : t -> int -> unit
(** Accept TCP connections on a port (SYN gets SYN-ACK). *)

(** {1 Sending} *)

val ping : t -> now:float -> dst:Packet.Ipv4_addr.t -> seq:int -> Packet.Eth.t list
(** Emit an echo request; if the destination MAC is unknown this is an
    ARP request and the ping is queued until the reply arrives. *)

val arp_probe : t -> target:Packet.Ipv4_addr.t -> Packet.Eth.t

val dhcp_discover : t -> now:float -> Packet.Eth.t

val tcp_connect :
  t -> dst_ip:Packet.Ipv4_addr.t -> dst_mac:Packet.Mac.t ->
  src_port:int -> dst_port:int -> Packet.Eth.t

(** {1 Receiving} *)

val receive : t -> now:float -> Packet.Eth.t -> Packet.Eth.t list
(** Process one frame, returning any responses (ARP replies, echo
    replies, DHCP continuations, SYN-ACKs, queued pings unblocked by an
    ARP reply). Frames not addressed to this host (unicast to another
    MAC) are dropped. *)

(** {1 Observations} *)

val ping_results : t -> ping_result list
(** Completed pings, oldest first. *)

val received_udp : t -> (int * string) list
(** (dst_port, payload) of every UDP datagram accepted. *)

val tcp_established : t -> (int * int) list
(** (local_port, remote_port) pairs for completed handshakes, as
    initiator or responder. *)
