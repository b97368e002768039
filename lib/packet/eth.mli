(** Ethernet frames — the unit carried on simulated links and inside
    OpenFlow packet-in/packet-out messages. Supports one optional
    802.1Q tag (used by the slicing layer to separate tenants). *)

type vlan = { vid : int; pcp : int }

type payload =
  | Arp of Arp.t
  | Ipv4 of Ipv4.t
  | Lldp of Lldp.t
  | Raw of int * string  (** ethertype, opaque body *)

type t = {
  src : Mac.t;
  dst : Mac.t;
  vlan : vlan option;
  payload : payload;
}

val make : ?vlan:vlan -> src:Mac.t -> dst:Mac.t -> payload -> t

val ethertype : t -> int
(** The ethertype of the payload (inner type when a VLAN tag is
    present). *)

val to_wire : t -> string
val of_wire : string -> t option

val size : t -> int
(** Wire length in bytes. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
