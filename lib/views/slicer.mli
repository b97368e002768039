(** The slicer (paper §4.2): "a slice of a network is a subset of the
    hardware and header space across one or more switches; the original
    topology is not changed."

    The slicer is a translation run by {!View_sync}, which owns the
    loop (poll, [error] files, deletion, counters, packet-ins and
    packet-outs). What is the slicer's own:

    - {b flows} — a tenant flow's match is narrowed to the slice's
      {e flowspace} (the intersection; a disjoint match is rejected),
      its outputs must stay on the slice's ports ([Flood]/[All] become
      explicit outputs on them), its priority is clamped below the
      cap, and it lands on the same master switch as
      [s.<view>.<flow>];
    - {b packet-ins} — one on a sliced port whose headers fall in
      the flowspace shows up on the view switch, same port;
    - {b packet-outs} — forwarded to the same master switch through the
      port filter; one naming a port outside the slice is dropped;
    - {b topology} — at create, switch attributes and the sliced ports
      are mirrored into the view; each run mirrors intra-slice [peer]
      links.

    Slices stack: the master handle may itself be a view. *)

type config = {
  view : string;
  switches : (string * int list) list;
      (** sliced switch and the ports the tenant may use; [[]] = all *)
  flowspace : Openflow.Of_match.t;
  priority_cap : int;  (** tenant priorities are clamped below this *)
}

type t

val create :
  ?cred:Vfs.Cred.t -> master:Yancfs.Yanc_fs.t -> config ->
  (t, Vfs.Errno.t) result
(** Create the view, mirror the sliced switches into it and subscribe
    to their packet-ins, so a packet-in that arrives before the first
    {!run} still reaches the tenant. *)

val view_fs : t -> Yancfs.Yanc_fs.t

val run : t -> now:float -> unit
(** One {!View_sync.run} of the slice. *)

val app : t -> Apps.App_intf.t

val flows_accepted : t -> int
(** View flow commits confined and installed. *)

val flows_rejected : t -> int
(** View flow commits refused (outside the flowspace or the ports). *)
