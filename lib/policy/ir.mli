(** The policy intermediate representation — a small NetCore-flavored
    algebra over the OpenFlow 12-tuple (paper's "higher layers compose
    on top of the file system"; Frenetic/NetCore is the exemplar).

    A policy maps one packet (its {!Packet.Headers.t} view) to a {e set}
    of {!atom}s. An atom is a header rewrite plus an optional output
    port; atoms without an output represent packets still "in flight"
    inside a [seq] chain and are discarded at top level. The reference
    interpreter ({!Interp.eval}) is the executable specification; the
    classifier compiler ({!Compile}) must agree with it on every packet
    — the same linear-spec discipline the fsnotify and classifier
    layers use, lifted to the semantic level. *)

(** {1 Predicates}

    Predicates are boolean combinations of match tests. A [Test] holds
    an ordinary {!Openflow.Of_match.t}: a single-field test is a match
    with one field present, and a multi-field match denotes the
    conjunction of its fields. [Test Of_match.any] is [True]. *)

type pred =
  | True
  | False
  | Test of Openflow.Of_match.t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

(** {1 Policies}

    [Mod] holds a header-rewrite action ([Set_*] constructors of
    {!Openflow.Action.t} only — no outputs, no [Strip_vlan]; see
    {!well_formed}). [Fwd] takes any pseudo-port except [Drop]
    (dropping is [Filter False], written [drop]). *)

type t =
  | Filter of pred                   (** pass matching packets unchanged *)
  | Fwd of Openflow.Action.pseudo_port
  | Mod of Openflow.Action.t         (** rewrite one header field *)
  | Seq of t * t                     (** then: pipe results through *)
  | Par of t * t                     (** union of both results *)
  | Ite of pred * t * t              (** if/then/else *)

val drop : t
(** [Filter False]. *)

val id : t
(** [Filter True]. *)

val well_formed : t -> (unit, string) result
(** [Mod] holds a [Set_*] action and [Fwd] is not [Drop]; the error
    names the offending construct. Parser output is always well formed;
    programmatic IR should be checked before compiling. *)

val size : t -> int
(** Constructor count (predicates included) — the policy-size axis of
    the E22 bench. *)

(** {1 Header rewrites}

    The modifiable fields are exactly the nine the OpenFlow 1.0 action
    set can rewrite ([in_port], [dl_type] and [nw_proto] have no set
    action). [None] means the field is left alone. *)

type mods = {
  m_dl_src : Packet.Mac.t option;
  m_dl_dst : Packet.Mac.t option;
  m_dl_vlan : int option;
  m_dl_vlan_pcp : int option;
  m_nw_src : Packet.Ipv4_addr.t option;
  m_nw_dst : Packet.Ipv4_addr.t option;
  m_nw_tos : int option;
  m_tp_src : int option;
  m_tp_dst : int option;
}

val no_mods : mods

val mods_of_action : Openflow.Action.t -> mods option
(** [Some] for the nine [Set_*] constructors, [None] otherwise. *)

val override : mods -> mods -> mods
(** [override a b]: apply [a] then [b]; [b]'s fields win. Associative
    with identity {!no_mods} — which is what makes [seq] associative. *)

val apply_mods : mods -> Packet.Headers.t -> Packet.Headers.t
(** [apply_mods (override a b) h = apply_mods b (apply_mods a h)]. *)

val mods_count : mods -> int
(** Number of fields set. *)

(** {1 Atoms} *)

type atom = {
  mods : mods;
  out : Openflow.Action.pseudo_port option;
      (** [None]: no output yet — the packet continues through a
          subsequent [seq] stage but is discarded at top level. *)
}

val atom_id : atom
(** No rewrites, no output — the result of [id]. *)

val compose : atom -> atom -> atom
(** Sequential composition: rewrites override left-to-right, the later
    output wins ([None] keeps the earlier one). *)

val norm : atom list -> atom list
(** Canonical atom-set form: sorted, duplicates removed. All IR and
    compiler functions produce and consume normalized lists. *)

val union : atom list -> atom list -> atom list
(** Set union of two normalized lists. *)

val pp_atoms : Format.formatter -> atom list -> unit
