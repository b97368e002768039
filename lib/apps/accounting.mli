(** The accounting application (Figure 1 lists accounting among the
    master applications): a cron job that aggregates the per-flow and
    per-port counters the drivers refresh and appends per-switch usage
    records under [/var/accounting/]. *)

type usage = { switch : string; packets : int64; bytes : int64; flows : int }

val collect : Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> usage list

val app :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> dir:Vfs.Path.t -> period:float ->
  App_intf.t
(** Every [period], append one CSV line ([time,packets,bytes,flows]) per
    switch to [<dir>/<switch>.csv]. A failed append is counted in
    [app.fs_errors]. *)
