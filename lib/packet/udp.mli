(** UDP datagrams. DHCP payloads (ports 67/68) are kept structured;
    anything else is opaque data. *)

type payload = Dhcp of Dhcp.t | Data of string

type t = { src_port : int; dst_port : int; payload : payload }

val protocol : int
(** 17 *)

val to_wire : t -> string
val of_wire : string -> t option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
