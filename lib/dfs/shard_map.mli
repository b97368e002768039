(** The deterministic shard map: rendezvous (highest-random-weight)
    hashing of switches onto controller nodes.

    Ownership is a pure function of (dpid, membership) — every node
    that agrees on who is alive agrees on who owns what, with no
    coordination. Membership changes move only the shards they must:
    a departed node's switches land on their runner-ups, a joined
    node takes only the switches it now wins. *)

val owner : members:string list -> dpid:int64 -> string option
(** The member with the highest weight for [dpid]; [None] iff
    [members] is empty. Member-list order is irrelevant. *)

val replicas : members:string list -> k:int -> dpid:int64 -> string list
(** The top-[k] members by weight, owner first — the replica set whose
    file systems carry this switch's flow state. Fewer than [k] when
    the membership is smaller. *)

val assign : members:string list -> dpids:int64 list -> (int64 * string) list
(** [owner] over a fleet. *)

val assign_balanced :
  ?slack:float -> members:string list -> dpids:int64 list -> unit ->
  (int64 * string) list
(** Consistent hashing with bounded loads: rendezvous preference order
    per dpid, but no member carries more than
    [ceil (slack * |dpids| / |members|)] shards (default slack 1.10) —
    an over-cap dpid spills to its next-highest-weight member. A pure
    function of the two sets (list order and duplicates are
    irrelevant); the result is sorted by dpid. Off-cap dpids sit at
    their rendezvous first choice, so membership changes still move
    roughly the minimal set plus the bounded overflow tail. *)

val spread : members:string list -> dpids:int64 list -> (string * int) list
(** Shards per member (sorted by name) — balance introspection. *)
