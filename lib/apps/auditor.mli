(** The auditor (paper §2: "an auditor might run periodically via a cron
    job"): walks the yanc tree, checks invariants, and writes a plain
    text report outside /net (showing that yanc state and ordinary files
    live in one file system).

    Checks: every switch has its typed children; every committed flow
    parses; flows carrying an [error] file; overlapping same-priority
    flows with conflicting actions (behaviour undefined by OpenFlow);
    [peer] symlinks are symmetric; ports that are admin-down. *)

type finding = { severity : [ `Info | `Warning | `Error ]; message : string }

val audit : Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> finding list

val report : finding list -> string

val run_to_file :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> out:Vfs.Path.t ->
  (int, Vfs.Errno.t) result
(** Audit and write the report; returns the number of warnings +
    errors. *)

val app :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> out:Vfs.Path.t -> period:float -> App_intf.t
(** Change-gated cron: one recursive watch on the switches tree; a
    period in which no events arrived skips the audit walk entirely.
    Audits at least once. *)
