(** The topology view: the one reader of the network's shape (paper
    §4.3, §3.5). The topology daemon writes LLDP-discovered links as
    [peer] symlinks and provisioning or the routers write host records
    under [hosts/]; every router and view reads them here, under one
    staleness rule, instead of re-reading the tree itself.

    It holds:
    - each switch's ports, with the [peer] symlink as written and
      whether the port is up (neither [config.port_down] nor
      [state.link_down] set);
    - the {b live} links: a port's [peer] symlink answered by the
      peer's own pointing back, both ports up;
    - each switch's edge ports: those without a [peer] symlink;
    - per destination switch, the equal-cost next-hop table over the
      live links, built on first use;
    - MAC → attachment, from [hosts/]: for a MAC carried by several
      records, the attachment of the last record by name.

    {b Inputs.} One notifier, made at {!create}: a recursive watch on
    [switches/] filtered to the leaves [peer], [config.port_down] and
    [state.link_down] (so flow, event and packet-out traffic is never
    queued), and a recursive watch on [hosts/].

    {b Rebuild rule.} The view is built on the first query. Every query
    first checks the notifier's queue: empty, it answers from memory
    and costs no crossing. Otherwise it drains the queue once; an event
    under [switches/], or an overflow, rebuilds every switch's ports
    and links and drops every next-hop table; an event under
    [hosts/<name>] re-reads that host only. *)

type location = { switch : string; port : int }

type hop = { out_port : int; peer : string; peer_in : int }
(** One link out of a switch: out port here, peer switch, peer's in
    port. *)

type t

val create : ?cred:Vfs.Cred.t -> Yancfs.Yanc_fs.t -> t
(** Place the watches; nothing is read until the first query. *)

val close : t -> unit
(** Drop the watches. *)

val version : t -> int
(** How many times the ports and links were (re)built: a consumer that
    derives something from them rebuilds it when this moves. *)

val switches : t -> string list

val ports : t -> string -> int list
(** Every port of the switch, ascending. *)

val peer : t -> switch:string -> port:int -> (string * int) option
(** The port's [peer] symlink, live or not. *)

val port_up : t -> switch:string -> port:int -> bool

val is_edge : t -> switch:string -> port:int -> bool
(** The port has no [peer] symlink (an unknown port counts as one). *)

val edge_ports : t -> string -> int list
(** Ascending; down ports included. *)

val links : t -> string -> hop list
(** The switch's live links, by [out_port]. *)

val toward : t -> dst_sw:string -> (string, hop array) Hashtbl.t
(** All equal-cost next hops toward [dst_sw] from every switch that
    reaches it over live links: the links whose peer is one step
    closer, sorted by [out_port]. [dst_sw] itself has no entry.
    Following any hop from a switch reaches [dst_sw] in its BFS hop
    count. The table is cached until the next rebuild; do not mutate
    it. *)

val path :
  t -> pick:(string -> hop array -> hop) -> from_sw:string -> dst_sw:string ->
  hop list option
(** A shortest path over the live links, as the hops leaving each switch
    on the way: at each switch [pick] chooses one of its {!toward}
    candidates. [Some []] when [from_sw = dst_sw], [None] when
    [dst_sw] is out of reach. *)

val host : t -> Packet.Mac.t -> location option

val hosts : t -> (Packet.Mac.t * location) list
(** Every MAC with an attachment, sorted. *)
