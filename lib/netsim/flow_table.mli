(** One OpenFlow flow table: priority-ordered wildcard matching with
    per-entry counters and idle/hard timeouts.

    Two lookup strategies are provided: [Linear] scans the
    priority-sorted entry list; [Classifier] is OVS-style tuple-space
    search — entries are
    partitioned into subtables by their wildcard mask, each subtable a
    hash table from the masked packed tuple to its entries, walked in
    descending max-priority order with pruning, and fronted by an
    exact-match microflow cache so steady-state forwarding is one hash
    probe. Both implement identical OpenFlow semantics; [Linear] is the
    executable specification the classifier is tested against, and the
    default — on the small exact-match tables of a flow-setup storm it
    is also the faster of the two (bench ABL2). *)

(** Datapath lookup counters: per-switch simulated-hardware state.
    One {!t} per switch (shared by all its tables, see
    {!Sim_switch.datapath_cost}); {!Network.datapath_cost} aggregates
    them per network. Benches gate on these rather than wall time where
    possible. *)
module Cost : sig
  type t

  val create : unit -> t

  val lookups : t -> int
  (** Packets run through {!val-lookup}. *)

  val entries_examined : t -> int
  (** Entries whose match was evaluated — the classifier's headline
      saving over the linear scan. *)

  val subtables_visited : t -> int
  (** Classifier subtables probed (one hash probe each). *)

  val micro_hits : t -> int

  val micro_misses : t -> int
  (** Microflow-cache outcomes; a hit answers a lookup with a single
      hash probe, touching no subtable. *)

  val invalidations : t -> int
  (** Generation bumps: mutations (add/modify/delete/expire) that could
      change some cached answer, each orphaning the whole microflow
      cache. *)

  val absorb : into:t -> t -> unit
  (** Add a switch's counters into an aggregate. *)

  val reset : t -> unit
end

type strategy = Linear | Classifier

type entry = {
  of_match : Openflow.Of_match.t;
  priority : int;
  seq : int;  (** install order — the deterministic tie-break: among
                  equal priorities the earliest install wins, and
                  {!entries} lists it first. *)
  actions : Openflow.Action.t list;
  cookie : int64;
  idle_timeout : int;   (** seconds; 0 = never *)
  hard_timeout : int;
  notify_removal : bool;
  install_time : float;
  mutable last_hit : float;
  mutable packets : int64;
  mutable bytes : int64;
}

type t

val create : ?strategy:strategy -> ?cost:Cost.t -> unit -> t
(** [cost] lets several tables (a switch's pipeline) share one counter
    set; a fresh one is created otherwise. *)

val strategy : t -> strategy

val cost : t -> Cost.t

val add :
  t -> now:float ->
  of_match:Openflow.Of_match.t -> priority:int ->
  actions:Openflow.Action.t list ->
  ?cookie:int64 -> ?idle_timeout:int -> ?hard_timeout:int ->
  ?notify_removal:bool -> unit -> unit
(** OpenFlow ADD: an entry with identical match and priority is
    replaced (its counters reset; it re-enters install order as the
    newest entry, as a fresh add would). *)

val modify : t -> of_match:Openflow.Of_match.t -> actions:Openflow.Action.t list -> int
(** OpenFlow MODIFY: update the actions of every entry whose match
    equals the given one; returns how many were updated (0 means the
    caller should treat it as an add). *)

val delete :
  ?strict:bool -> ?priority:int -> t ->
  of_match:Openflow.Of_match.t -> entry list
(** OpenFlow DELETE: by default remove every entry whose match is
    subsumed by the given match (so the [any] match empties the table),
    ignoring priority; returns the removed entries. With [~strict:true]
    (DELETE_STRICT) remove only entries whose match equals [of_match]
    exactly and — when [priority] is given — whose priority equals it. *)

val lookup : t -> now:float -> Packet.Headers.t -> entry option
(** Highest-priority live matching entry (ties broken by install
    order). Entries past their idle or hard timeout at [now] no longer
    match, even before an {!expire} sweep reaps them. Updating the
    winner's counters is the caller's job (see {!hit}). *)

val hit : entry -> now:float -> bytes:int -> unit
(** Record one matched packet. *)

val expire : t -> now:float -> entry list
(** Remove and return entries past their idle or hard timeout. *)

val timed : t -> int
(** How many stored entries carry an idle or hard timeout — the count
    that lets {!expire} (and whole-switch schedulers above it) skip
    tables where nothing can ever expire. *)

val entries : t -> entry list
(** All stored entries, highest priority first; priority ties in
    install order (oldest first), independent of strategy and hash
    iteration order. Includes entries past their timeout that no
    {!expire} sweep has reaped yet — use {!live_entries} when expiry
    must be respected. *)

val live_entries : t -> now:float -> entry list
(** {!entries} minus expired-but-not-yet-reaped ones — what the switch
    would actually match at [now]. Stats replies are built from this
    view so a resync diff never counts a dead entry as present. *)

val is_expired : entry -> now:float -> bool
(** Whether the entry is past its idle or hard timeout at [now]. *)

val length : t -> int
