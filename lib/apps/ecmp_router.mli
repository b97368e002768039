(** ECMP routing daemon — the datacenter companion to {!Router}.

    Where [routerd] installs the single BFS shortest path, [ecmpd]
    spreads flows across {e all} equal-cost next hops, the way a Clos
    fabric is meant to be used: at every switch the equal-cost
    candidates toward the destination ({!Topo_view.toward}) are
    indexed by the hash of the packet's packed
    12-tuple ({!Openflow.Of_match.Packed.hash}) mixed with a per-switch
    salt, so flows shuffle across the fabric but every packet of a flow
    takes one stable path, and successive tiers don't polarize. Exact
    per-flow rules are installed along the chosen path last-hop-first
    through the flow directories — the app remains an ordinary file
    system client.

    Topology and host locations come from {!Topo_view}: routes run
    over live links only, so a link whose [peer] symlink goes or whose
    port goes down stops carrying new flows at once. A packet-in's
    source on an edge port that the view does not know is published
    under [/net/hosts]; unknown destinations are dropped and counted
    ([app.ecmpd.unknown_dst]) — a datacenter fabric does not flood.

    Packet-ins come from the pooled {!Yancfs.Pktin} ring in bounded
    batches; the daemon is parked through its [pending] hook while the
    ring is empty. *)

type t

val create :
  ?cred:Vfs.Cred.t -> ?tag:string ->
  ?idle_timeout:int -> ?priority:int -> ?batch:int ->
  Yancfs.Yanc_fs.t -> t
(** [tag] namespaces installed flow
    names ([ecmp<tag>-<seq>]) so router instances on different cluster
    nodes never collide in a shared path switch's flows directory;
    [batch] (default 512) bounds ring events handled per scheduler
    tick; [idle_timeout] (default 30) and [priority] (default 300)
    shape the installed rules. *)

val app : t -> App_intf.t
(** Daemon named ["ecmpd"], with a [pending] hook so the scheduler
    skips it while the ring is empty. *)

val paths_installed : t -> int

val hosts_tracked : t -> int
