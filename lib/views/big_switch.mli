(** The single-big-switch virtualizer (paper §4.2): "network
    virtualization provides any arbitrary transformation, such as
    combining multiple switches and forming a new topology".

    The daemon presents, in a view, one virtual switch ([big0] by
    default) whose ports are the {e edge} ports of the underlying
    network (ports without a [peer] link), numbered 1..n and refreshed
    each run. It is a translation run by {!View_sync}, which owns the
    loop (poll, [error] files, deletion, counters, packet-ins and
    packet-outs). What is the big switch's own:

    - {b flows} — a flow whose action outputs virtual port [v] becomes
      one flow per physical switch ([v.<view>.<flow>.<switch>])
      forwarding along the shortest [peer]-link path toward [v]'s real
      (switch, port); header rewrites are applied at the egress hop,
      whose rule comes first and so carries the view flow's counters.
      A virtual [in_port] match is translated to the real ingress
      (switch, port) and the path starts there. A drop rule goes on
      the ingress switch, or on every switch. Several output ports and
      [Enqueue] are rejected;
    - {b packet-ins} — one arriving on an underlay edge port shows up on
      the virtual switch with the virtual ingress port;
    - {b packet-outs} — one on a virtual port (or flooded) goes out the
      real port's switch.

    The underlay handle may itself be a slicer view — stacking views is
    exactly composing these daemons (paper: "views can be stacked
    arbitrarily"). *)

type t

val create :
  ?cred:Vfs.Cred.t -> ?switch_name:string -> master:Yancfs.Yanc_fs.t ->
  view:string -> unit -> (t, Vfs.Errno.t) result

val view_fs : t -> Yancfs.Yanc_fs.t

val port_map : t -> (int * (string * int)) list
(** virtual port -> (real switch, real port), refreshed on each run. *)

val run : t -> now:float -> unit
(** One {!View_sync.run} of the big switch. *)

val app : t -> Apps.App_intf.t

val flows_compiled : t -> int
(** View flow commits compiled and installed. *)
