(** Exact-match path installation through the flow directories — the
    one installer behind {!Router} (routerd) and {!Ecmp_router}
    (ecmpd). The daemons differ in how they pick a path; installing it
    is the same job. *)

type location = { switch : string; port : int }

type hop = { out_port : int; peer : string; peer_in : int }
(** One link out of a switch: out port here, peer switch, peer's in
    port. *)

val adjacency :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> (string, hop) Hashtbl.t
(** The fabric as the topology daemon's [peer] symlinks describe it:
    every switch's links, one binding per port. *)

val install :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> fs_errors:Telemetry.Registry.counter ->
  name:(unit -> string) ->
  priority:int -> idle_timeout:int -> headers:Packet.Headers.t ->
  ingress:location -> dst_loc:location -> buffer_id:int32 option ->
  data:string -> hop list -> unit
(** Install one exact-match flow (the packet's headers plus [in_port])
    per switch along [hops] from [ingress] to [dst_loc], last hop first
    so no packet races an absent rule. [name] is called once per flow,
    in install order. The ingress hop releases [buffer_id]; when the
    ingress is unbuffered the packet itself is sent along as a
    packet-out. A failed write is logged and counted in [fs_errors]
    ({!App_intf.fs_errors}). *)
