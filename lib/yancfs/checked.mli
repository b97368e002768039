(** The yancfs layer's own writes — the proc tree, a mount's top
    directories — have no caller to return an error to. Each failure is
    counted in the file system's [yancfs.fs_errors] counter, which the
    health probes judge Crit, and logged. *)

val report :
  Vfs.Fs.t -> string -> Vfs.Path.t -> ('a, Vfs.Errno.t) result -> unit
(** [report fs what path r]: nothing on [Ok]; on [Error] count and log
    ["yancfs: <what> <path>: <reason>"]. *)
