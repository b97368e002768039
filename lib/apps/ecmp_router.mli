(** ECMP routing daemon — the datacenter companion to {!Router}.

    Where [routerd] installs the single BFS shortest path, [ecmpd]
    spreads flows across {e all} equal-cost next hops, the way a Clos
    fabric is meant to be used: at every switch the equal-cost
    candidates toward the destination (one reverse BFS per destination
    edge switch, cached) are indexed by the hash of the packet's packed
    12-tuple ({!Openflow.Of_match.Packed.hash}) mixed with a per-switch
    salt, so flows shuffle across the fabric but every packet of a flow
    takes one stable path, and successive tiers don't polarize. Exact
    per-flow rules are installed along the chosen path last-hop-first
    through the flow directories — the app remains an ordinary file
    system client.

    Host locations bootstrap from [/net/hosts] (written by provisioning
    or the scale bench) and keep learning from packet-in source
    addresses; unknown destinations are dropped and counted
    ([app.ecmpd.unknown_dst]) — a datacenter fabric does not flood.

    Delivery is selectable: [Ring] drains the pooled {!Yancfs.Pktin}
    fast path in bounded batches (the storm configuration, parked via
    its [pending] hook when the ring is empty); [Eventdir] consumes
    per-event file directories like every other app — same routing
    logic, and the baseline the scale bench compares against. *)

type t

type delivery = Ring | Eventdir

val create :
  ?cred:Vfs.Cred.t -> ?delivery:delivery -> ?tag:string ->
  ?idle_timeout:int -> ?priority:int -> ?batch:int ->
  Yancfs.Yanc_fs.t -> t
(** [delivery] defaults to [Ring]; [tag] namespaces installed flow
    names ([ecmp<tag>-<seq>]) so router instances on different cluster
    nodes never collide in a shared path switch's flows directory;
    [batch] (default 512) bounds ring events handled per scheduler
    tick; [idle_timeout] (default 30) and [priority] (default 300)
    shape the installed rules. *)

val app : t -> App_intf.t
(** Daemon named ["ecmpd"]. In [Ring] mode it exposes a [pending] hook
    so the scheduler skips it while the ring is empty. *)

val run : t -> now:float -> unit

val paths_installed : t -> int

val hosts_tracked : t -> int
