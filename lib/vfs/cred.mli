(** Credentials under which file-system calls are made.

    In yanc each network application runs as its own (simulated) process
    with its own uid/gid, so Unix permissions and ACLs give fine-grained
    control of network resources (paper §5.1): a flow, or an entire
    switch, can be protected from specific applications.

    A credential may also carry a {b floor}, as a process carries a
    root directory: every call made under it stays beneath that
    directory, or fails with [EXDEV] (see {!Fs}). A view daemon acts on
    its tenant's subtree under one, so a symlink the tenant plants
    cannot steer it into the master (paper §5.3). *)

type t = private {
  uid : int;
  gid : int;
  groups : int list;
  floor : Path.t;  (** {!Path.root} when the credential has none *)
}

val root : t
(** uid 0 — bypasses permission checks, as on Linux. No floor. *)

val make : ?groups:int list -> uid:int -> gid:int -> unit -> t
(** No floor. *)

val beneath : t -> Path.t -> t
(** The same identity, confined beneath a canonical directory. A floor
    only narrows: given a directory outside the current floor, the
    credential is returned unchanged. *)

val is_root : t -> bool

val in_group : t -> int -> bool
(** Member of a group, either as primary gid or supplementary. *)

val pp : Format.formatter -> t -> unit
