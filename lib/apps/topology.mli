(** The topology discovery daemon (paper §4.3): handles LLDP and keeps
    each port's [peer] symbolic link pointing at the port on the other
    end of the physical link, purely through the file system:

    - per switch, it installs an [lldp-to-controller] flow and creates
      its private packet-in buffer;
    - periodically it spools LLDP probes out of every port
      ([packet_out/]);
    - LLDP packet-ins identify (sender switch, sender port) → it points
      [<rx port>/peer] at the sender's port directory;
    - links that stop being confirmed within the TTL lose their
      symlink.

    Other applications (the router, map builders) consume the symlinks
    and never see LLDP. *)

type t

val create :
  ?probe_interval:float -> ?ttl:float -> ?cred:Vfs.Cred.t ->
  Yancfs.Yanc_fs.t -> t
(** [probe_interval] defaults to 1s, [ttl] to 3 probe intervals. *)

val app : t -> App_intf.t

val links : t -> ((string * int) * (string * int)) list
(** The live links of the daemon's {!Topo_view}, each once,
    canonically smaller endpoint first. *)

val app_name : string
(** The buffer directory name this daemon subscribes under. *)
