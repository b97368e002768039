(** LIME-style state migration (paper §2 cites LIME's "occasional
    reshuffling of flow entries [that] is best called on-demand", §7.2
    envisions moving middlebox state with [cp]/[mv]).

    Because flows are directories of plain files, migration {e is} a
    recursive copy: read every flow under the source switch, rewrite its
    port-specific actions through a port map, create it under the
    destination, and (for a move) delete the source flow. *)

val copy_flows :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> src:string -> dst:string ->
  ?port_map:(int -> int) -> ?rename:(string -> string) -> unit ->
  (int, string) result
(** Returns the number of flows copied. Flows that fail to parse are
    reported, not silently skipped. *)

val move_flows :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> src:string -> dst:string ->
  ?port_map:(int -> int) -> unit -> (int, string) result
(** {!copy_flows}, then delete the source flows. A failed delete is
    counted in [app.fs_errors]. *)

val oneshot :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> src:string -> dst:string -> App_intf.t
