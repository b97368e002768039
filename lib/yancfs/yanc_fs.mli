(** The assembled yanc file system: a {!Vfs.Fs.t} with the /net
    hierarchy created and the {!Schema} semantics attached, plus typed
    helpers for the records drivers and system applications read and
    write. All helpers are thin wrappers over ordinary file I/O — any
    application could do the same with [cat] and [echo] (paper §5.4). *)

type t

val create : ?root:Vfs.Path.t -> ?telemetry:Telemetry.t -> Vfs.Fs.t -> t
(** Mount at [root] (default [/net]): create the top-level hierarchy and
    attach schema semantics. Idempotent over an existing tree.
    [telemetry] is the observability hub the flow-write path (and every
    component reached through this handle — drivers, agents) reports
    into; when omitted, an instance with tracing disabled is created
    over the file system's registry ({!Vfs.Fs.registry}), so
    standalone use costs nothing and still reports into the same
    namespace as the file system. *)

val fs : t -> Vfs.Fs.t
val root : t -> Vfs.Path.t

val telemetry : t -> Telemetry.t

val pktin : t -> Pktin.t
(** The packet-in fast-path ring shared by every handle over this
    mount (views included) — drivers publish into it, applications
    subscribe and drain ({!Pktin}). *)

val next_packet_out : t -> int
val next_event : t -> int
(** The number of the next record in one of the mount's packet-out
    spools ({!Outdir}), or in one of its event buffers ({!Eventdir}):
    1, 2, … on a fresh mount, one counter per kind, shared by every
    handle over the mount (views included) as {!pktin} is. No two
    records posted through the mount share a name; a second {!create}
    over the same file system counts on its own, from 1. *)

val set_seq_base : t -> int -> unit
(** Number the mount's next records from [base + 1] on; call it before
    the first. A cluster gives each node's mount its own slice, as it
    gives each node's tracer one, so two nodes posting into one
    replicated spool never pick the same name. *)

val in_view : t -> cred:Vfs.Cred.t -> string -> (t, Vfs.Errno.t) result
(** A handle rooted at [<root>/views/<name>], creating the view if
    needed — the schema populates its hosts/switches/views. The result
    is a full yanc root: every other function works on it unchanged. *)

val tree : t -> string
(** Render the hierarchy (Figure 2 reproduction). *)

(** {1 Switches (driver-side, run as root)} *)

val switch_name_of_dpid : int64 -> string
(** ["sw<dpid>"] — the paper's naming. *)

val add_switch :
  t -> cred:Vfs.Cred.t -> name:string -> dpid:int64 -> protocol:string -> n_buffers:int ->
  n_tables:int -> capabilities:string list -> actions:string list ->
  (unit, Vfs.Errno.t) result

val remove_switch : t -> string -> (unit, Vfs.Errno.t) result

val switch_names : t -> string list

val switch_dpid : t -> string -> int64 option

val switch_protocol : t -> string -> string option

val set_switch_status :
  t -> switch:string -> string -> (unit, Vfs.Errno.t) result
(** Write the driver-owned [status] attribute
    ([connected]/[degraded]/[reconnecting]/[dead]/...); applications
    watch this file to learn a switch's control channel died. *)

val switch_status : t -> string -> string option

(** {1 Ports} *)

val set_port :
  t -> cred:Vfs.Cred.t -> switch:string -> Openflow.Of_types.Port_info.t ->
  (unit, Vfs.Errno.t) result
(** Create or refresh the port directory from a port description. The
    [config.port_down] file is only initialized on creation — afterwards
    it belongs to administrators (writing it is how ports are shut:
    [echo 1 > port_2/config.port_down], paper §3.1). *)

val remove_port : t -> switch:string -> int -> (unit, Vfs.Errno.t) result

val port_numbers : t -> cred:Vfs.Cred.t -> string -> int list

val read_port :
  t -> cred:Vfs.Cred.t -> switch:string -> int ->
  (Openflow.Of_types.Port_info.t, Vfs.Errno.t) result
(** The description as the {e administrator} sees/sets it: [admin_down]
    comes from [config.port_down] (which an admin may have changed since
    the driver last wrote the directory). *)

val port_up : t -> cred:Vfs.Cred.t -> switch:string -> int -> bool
(** Neither [config.port_down] nor [state.link_down] is set, read with
    two reads; an unreadable file counts as set. *)

val write_port_counters :
  t -> switch:string -> port:int -> Openflow.Of_types.Port_stats.t ->
  (unit, Vfs.Errno.t) result

val set_peer :
  t -> cred:Vfs.Cred.t -> switch:string -> port:int ->
  peer:(string * int) option -> (unit, Vfs.Errno.t) result
(** Point the port's [peer] symlink at another (switch, port), or remove
    it. Topology daemons own these links (paper §3.3, §4.3). *)

val peer_of :
  t -> cred:Vfs.Cred.t -> switch:string -> port:int -> (string * int) option

(** {1 Flows} *)

val open_flow :
  t -> cred:Vfs.Cred.t -> switch:string -> string -> (Vfs.Fs.dir, Vfs.Errno.t) result
(** {!Vfs.Fs.opendir} of the flow directory: the handle every
    {!Flowdir} call takes. Open it once per run of calls and drop it. *)

val open_flows :
  t -> cred:Vfs.Cred.t -> string -> (Vfs.Fs.dir, Vfs.Errno.t) result
(** {!Vfs.Fs.opendir} of a switch's [flows/] directory, for the
    {!Flowdir} probes' [?flow]: one open serves a poll of every flow. *)

val create_flow :
  t -> cred:Vfs.Cred.t -> switch:string -> name:string -> Flowdir.t ->
  (unit, Vfs.Errno.t) result
(** mkdir the flow directory, open it, and commit the fields
    ({!Flowdir.write}: a directory just made holds no stale files, so
    the open costs the crossing a listing would). *)

val upsert_flow :
  t -> cred:Vfs.Cred.t -> switch:string -> name:string -> Flowdir.t ->
  (unit, string) result
(** Create the flow, or, when it exists ([EEXIST]), commit [flow] over
    it with {!Flowdir.update}, which continues the old version chain.
    The error is the failing errno's message or the unparseable file. *)

val flow_names : t -> cred:Vfs.Cred.t -> string -> string list

module Name_set : Set.S with type elt = string

val flow_name_set : t -> cred:Vfs.Cred.t -> string -> Name_set.t
(** The committed flow-directory names as a set — the membership type
    consumers doing deletion detection want ([flow_names] + [List.mem]
    is O(flows²) over a whole table scan). *)

val read_flow :
  t -> cred:Vfs.Cred.t -> switch:string -> string -> (Flowdir.t, string) result

val delete_flow :
  t -> cred:Vfs.Cred.t -> switch:string -> string -> (unit, Vfs.Errno.t) result

(** {1 Hosts} *)

val upsert_host :
  t -> cred:Vfs.Cred.t -> name:string -> mac:Packet.Mac.t ->
  ip:Packet.Ipv4_addr.t option -> ?attached_to:string * int -> unit ->
  (unit, Vfs.Errno.t) result

val host_names : t -> cred:Vfs.Cred.t -> string list

val read_host :
  t -> cred:Vfs.Cred.t -> string ->
  (Packet.Mac.t * Packet.Ipv4_addr.t option * (string * int) option, Vfs.Errno.t) result
