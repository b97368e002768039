(** Flow entries as directories (paper §3.4, Figure 3).

    A flow directory holds one file per specified match field
    ([match.dl_type], …; absence means wildcard), one file per action
    ([action.0.out], …), [priority], [idle_timeout], [hard_timeout],
    [cookie], and the [version] file implementing the atomic-commit
    protocol: writers update any number of field files and then
    increment [version]; drivers react only to [version] changes, so a
    multi-file update is applied to hardware atomically. *)

type t = {
  of_match : Openflow.Of_match.t;
  actions : Openflow.Action.t list;
  priority : int;
  idle_timeout : int;
  hard_timeout : int;
  cookie : int64;
  version : int;
  buffer_id : int32 option;
      (** reactive-flow optimization: naming a switch packet buffer here
          makes the driver release that buffered packet through the new
          flow's actions when it programs the hardware *)
}

val default : t
(** Wildcard match, no actions (drop), priority 0x8000, no timeouts,
    version 0. *)

val write :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> t -> (unit, Vfs.Errno.t) result
(** Materialize the flow under an existing flow directory: write all
    field files and finally the incremented version — the commit
    point. *)

val update :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> (t -> t) -> (t, string) result
(** Read-modify-write in one step: parse the directory, apply [f], and
    commit the result ({!write}, which bumps [version]). Returns the flow as committed — i.e.
    with the bumped version — so callers can cache it. Apps that want
    create-or-update call {!Yanc_fs.upsert_flow}, which is built on
    this. *)

val read : Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> (t, string) result
(** Parse a flow directory. Unparseable or unknown files make the whole
    flow invalid (the error names the file), so drivers can surface the
    problem in the flow's [error] file rather than program garbage. *)

val read_version : Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> int option
(** Fast path for the driver's change scan: just the version file
    ([None] when absent/invalid — i.e. not yet committed). *)

val read_counters :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> (int64 * int64) option
(** [counters/packets] and [counters/bytes] of the flow directory;
    [None] until the driver has reported both. *)

val write_counters :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t ->
  packets:int64 -> bytes:int64 -> duration_s:int -> (unit, Vfs.Errno.t) result
(** Refresh [counters/{packets,bytes,duration}] (driver-side). *)

val set_error :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> string option ->
  (unit, Vfs.Errno.t) result
(** Write or clear the [error] file. *)

val equal_config : t -> t -> bool
(** Equality ignoring [version] — used by drivers to detect no-op
    commits. *)

val pp : Format.formatter -> t -> unit
