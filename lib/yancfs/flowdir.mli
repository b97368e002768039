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

val commit_file : string
(** ["version"], the commit point: a consumer of flow directories need
    hear nothing else below one (see the [leaves] filter of
    {!Fsnotify.Notifier.add_watch}). *)

val default : t
(** Wildcard match, no actions (drop), priority 0x8000, no timeouts,
    version 0. *)

val of_fields : (string * string) list -> (t, string) result
(** The flow that field files' [(name, value)] pairs describe, over
    {!default}: a value that does not parse is the error, naming its
    file; a name outside the flow's record ({!Schema.flow}) is ignored.
    This is {!read}'s parser, for a flow written as text elsewhere
    (a flow pusher's spec line). *)

val is_spec_file : string -> bool
(** The files a static flow spec may name: the [match.] and [action.]
    families, [priority], [idle_timeout] and [hard_timeout]. A spec
    names no [version] (the commit's), [buffer_id] (a packet one
    switch holds) or [cookie]. *)

(** {1 I/O through a directory handle}

    Every function acts on an opened flow directory ({!Vfs.Fs.opendir}
    of [<root>/switches/<sw>/flows/<name>], see {!Yanc_fs.open_flow}):
    the path is walked once per caller, and each file is one
    handle-relative call. The flow's files are read and written only
    here; their names are {!Schema.flow}'s.

    The probes that touch one to three files ({!read_version},
    {!read_counters}, {!write_counters}, {!read_error}) also take
    [?flow]: the handle is then on the switch's [flows/] directory
    ({!Yanc_fs.open_flows}) and [flow] names the flow in it, so a
    caller probing many flows opens [flows/] once instead of opening
    each flow directory — one crossing per probed file, as a path call
    costs. *)

val write :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> t -> (unit, Vfs.Errno.t) result
(** Materialize the flow in a directory just made: write all field
    files and finally the incremented version — the commit point.
    Nothing stale can be there, so nothing is listed; a rewrite goes
    through {!update}. *)

val update :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> (t -> t) -> (t, string) result
(** Read-modify-write in one step: parse the directory, apply [f], and
    commit the result: stale [match.*]/[action.*] files (the read's
    listing names them) are removed so a narrower rewrite wins, then
    every field file and the bumped [version] are written. Returns the
    flow as committed — i.e. with the bumped version — so callers can
    cache it. Apps that want create-or-update call
    {!Yanc_fs.upsert_flow}, which is built on this. *)

val read : Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> (t, string) result
(** Parse a flow directory. Unparseable or unknown files make the whole
    flow invalid (the error names the file), so drivers can surface the
    problem in the flow's [error] file rather than program garbage. *)

val read_reporting :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> (t -> ('a, string) result) ->
  ('a, string) result * (unit, Vfs.Errno.t) result
(** The [error]-file protocol of a consumer that programs flows (a
    driver, a view): {!read}, judge the flow with [judge], and mirror
    the verdict in the [error] file — a rejection's message written, an
    acceptance removing a stale error file only when the listing just
    read names one, so a clean commit costs no extra crossing. Returns
    the verdict and the error file's write result. *)

val read_version :
  ?flow:string -> Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir ->
  (int option, Vfs.Errno.t) result
(** Fast path for a change scan: just the version file ([Ok None] when
    absent/invalid — i.e. not yet committed; [Error] when it cannot be
    read, e.g. [EXDEV] through a symlink out of a floored credential's
    reach). *)

val read_counters :
  ?flow:string -> Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir ->
  (int64 * int64) option
(** [counters/packets] and [counters/bytes] of the flow directory;
    [None] until the driver has reported both. *)

val write_counters :
  ?flow:string -> Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir ->
  packets:int64 -> bytes:int64 -> duration_s:int -> (unit, Vfs.Errno.t) result
(** Refresh [counters/{packets,bytes,duration}] (driver-side). *)

val set_error :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> string option ->
  (unit, Vfs.Errno.t) result
(** Write or clear the [error] file. *)

val read_error :
  ?flow:string -> Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir ->
  (string option, Vfs.Errno.t) result
(** The [error] file's message, [None] when there is none. *)

val clear_buffer_id :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> (unit, Vfs.Errno.t) result
(** Remove [buffer_id]: the reference is one-shot, spent when the
    driver programs the flow. *)

val is_news :
  version:int -> ino:int -> seen_version:int -> seen_ino:int -> bool
(** The commit-staleness rule, the one every consumer that programs
    flows (the driver, the views' sync engine) applies: a flow
    directory at inode [ino] committing [version] is news to a consumer
    that last synced [seen_version] at [seen_ino] when the version rose
    or the inode changed. The version file alone can lie: delete +
    re-create between two reads restarts the chain below the number
    already seen, and the inode tells the re-created directory from the
    old one. *)

val equal_config : t -> t -> bool
(** Equality ignoring [version] — used by drivers to detect no-op
    commits. *)
