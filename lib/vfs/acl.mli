(** POSIX-style access control lists.

    yanc (paper §5.1) relies on ACLs for finer-grained sharing than
    owner/group/other allows — e.g. granting one monitoring application
    read access to a tenant's switch directory without making it a group
    member. An ACL is a list of entries; when present, it refines the
    check performed against the classic mode bits, following the POSIX
    1003.1e evaluation order (user, named users, owning/named groups
    masked, other). *)

type tag =
  | User_obj            (** the owner; permissions from the mode bits *)
  | User of int         (** a named user *)
  | Group_obj           (** the owning group *)
  | Group of int        (** a named group *)
  | Mask                (** upper bound for group-class entries *)
  | Other

type entry = { tag : tag; perms : int (** rwx bits, 0..7 *) }

type t = entry list

val empty : t
(** No extended entries; the mode bits alone decide. *)

val check :
  acl:t -> mode:int -> owner:int -> group:int -> Cred.t -> Perm.access -> bool
(** Combined ACL + mode check. With an [empty] acl this is exactly
    {!Perm.check}. Root always passes. *)

val add : t -> entry -> t
(** Insert or replace the entry with the same tag. *)

val remove : t -> tag -> t

val validate : t -> bool
(** At most one entry per [User_obj]/[Group_obj]/[Mask]/[Other] tag, at
    most one per named id, perms within 0..7, and a [Mask] entry present
    whenever named users or groups are. *)

val to_text : mode:int -> t -> string
(** getfacl-style textual form. *)

val of_text : string -> (t, string) result
(** Parse the getfacl-style form produced by {!to_text} (entries only;
    mode-derived lines update nothing and are accepted). *)
