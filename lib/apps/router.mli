(** The reactive router daemon (paper §8): "handles all table misses and
    sets up paths based on exact match through the network".

    It reads the network through {!Topo_view} only. For every packet-in
    it publishes the sending host under [hosts/] when the view has it
    elsewhere or not at all (or the frame names its address) — edge
    ports are the ports without a [peer] symlink; answers broadcasts by
    delivering to every up edge port in the network (loop-free on any
    topology); and for unicast traffic to a host the view locates,
    installs one exact-match flow per hop along a shortest path over
    the live links, releasing the buffered packet at the ingress. *)

type t

val create :
  ?cred:Vfs.Cred.t -> ?idle_timeout:int -> ?priority:int ->
  Yancfs.Yanc_fs.t -> t

val app : t -> App_intf.t

val paths_installed : t -> int

val hosts_tracked : t -> int

val app_name : string
