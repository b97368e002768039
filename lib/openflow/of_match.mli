(** Protocol-independent flow match — the OpenFlow 1.0 12-tuple, where
    [None] means wildcard. OF 1.0 encodes this as the fixed [ofp_match]
    struct, OF 1.3 as OXM TLVs; the yanc file system stores each present
    field as one [match.*] file ("absence of a match file implies a
    wildcard", paper §3.4). *)

type t = {
  in_port : int option;
  dl_src : Packet.Mac.t option;
  dl_dst : Packet.Mac.t option;
  dl_vlan : int option;
  dl_vlan_pcp : int option;
  dl_type : int option;
  nw_src : Packet.Ipv4_addr.Prefix.t option;
  nw_dst : Packet.Ipv4_addr.Prefix.t option;
  nw_proto : int option;
  nw_tos : int option;
  tp_src : int option;
  tp_dst : int option;
}

val any : t
(** Matches everything (all fields wildcarded). *)

val exact_of_headers : Packet.Headers.t -> t
(** The fully-specified match for one packet — what a reactive
    controller installs for "exact match" forwarding. *)

val matches : t -> Packet.Headers.t -> bool

val subsumes : t -> t -> bool
(** [subsumes a b] when every packet matched by [b] is matched by [a] —
    the containment check slices use to confine tenants to their
    flowspace. *)

val intersect : t -> t -> t option
(** The match hitting exactly the packets both hit; [None] when
    disjoint. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [intersect a b = None]: some field carries two
    constraints no packet satisfies together. Allocates nothing. *)

val is_exact : t -> bool

val specificity : t -> int
(** Number of specified fields (used for tie-breaking displays only;
    OpenFlow semantics order overlapping flows by priority). *)

(** {1 Field-file codec (paper §3.4)}

    Fields are named exactly as in the paper: [in_port], [dl_src],
    [dl_dst], [dl_vlan], [dl_vlan_pcp], [dl_type], [nw_src], [nw_dst],
    [nw_proto], [nw_tos], [tp_src], [tp_dst]. IP fields take CIDR
    notation; MAC fields the colon form; [dl_type] hex ([0x0800]). *)

val to_fields : t -> (string * string) list
(** Only the present fields, in canonical order. *)

val of_fields : (string * string) list -> (t, string) result
(** Unknown names and malformed values are errors (the message names the
    offending field). *)

val set_field : t -> string -> string -> (t, string) result
(** Parse and set one field by its file name. *)

val equal : t -> t -> bool
val hash : t -> int
(** A hash over all twelve fields, consistent with {!equal}; for hash
    tables keyed on matches. *)

val pp : Format.formatter -> t -> unit

(** {1 Packed representation}

    The 12-tuple packed into five OCaml ints, with presence bits
    distinguishing an optional field that is absent from one present
    with value 0. Packing a packet costs one five-word record and no
    other allocation; comparing two packed tuples is five int
    equalities. {!Flow_table}'s exact-match and classifier backends key
    their hash tables with these instead of formatted strings. *)

module Packed : sig
  type t
  (** The packed image of either a packet's headers ({!of_headers}) or
      one side of a match rule ({!pack_rule}). *)

  val zero : t
  val equal : t -> t -> bool
  val hash : t -> int

  val logand : t -> t -> t
  (** Word-wise AND — restricts a packed packet to a subtable's mask. *)

  val of_headers : Packet.Headers.t -> t

  type rule = { mask : t; value : t }

  val matches : rule -> t -> bool
  (** [matches r key] iff [logand r.mask key] equals [r.value] —
      equivalent to {!Of_match.matches} on the unpacked forms. *)

  module Tbl : Hashtbl.S with type key = t
end

val pack_rule : t -> Packed.rule
(** The packed image of a match: [mask] has a bit set for every header
    bit the match constrains (field bits — the CIDR netmask for the nw
    prefixes — plus, for optional fields, the presence bit), and a
    packet matches iff masking its packed headers yields [value]
    exactly. Matches over the same field set share one [mask], which is
    what partitions the classifier's subtables. *)
