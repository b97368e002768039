(** The reference interpreter — the executable specification the
    classifier compiler is proved against: the same linear-spec
    discipline as the fsnotify and classifier layers, at the semantic
    level.

    [eval p h] is the denotation of policy [p] on the packet whose
    header view is [h]: the normalized set of {!Ir.atom}s it produces.
    Everything else in the policy layer is judged against this
    function. *)

val eval_pred : Ir.pred -> Packet.Headers.t -> bool

val eval : Ir.t -> Packet.Headers.t -> Ir.atom list
(** Denotational semantics, Kleisli-composed over the powerset monad:
    [Filter] keeps or drops the unit atom, [Fwd]/[Mod] produce one
    atom, [Seq p q] runs [q] on each [p]-atom's rewritten packet and
    composes, [Par] unions, [Ite] branches per packet. The result is
    {!Ir.norm}alized. *)

val emitted :
  Ir.atom list ->
  Packet.Headers.t ->
  (Packet.Headers.t * Openflow.Action.pseudo_port) list
(** The observable effect of an atom set on a packet: one
    (rewritten headers, output port) pair per atom that actually
    outputs (atoms with [out = None] are discarded), sorted and
    deduplicated. This is the value compared against {!replay} in the
    equivalence property. *)

val replay :
  Openflow.Action.t list ->
  Packet.Headers.t ->
  (Packet.Headers.t * Openflow.Action.pseudo_port) list
(** OpenFlow 1.0 switch semantics for a compiled action list: actions
    apply in order to an accumulating header state, and each
    [Output]/[Enqueue] emits the packet {e as rewritten so far}. Sorted
    and deduplicated like {!emitted}, so
    [replay compiled h = emitted (eval p h) h] is the per-rule
    correctness statement for realizable rules. *)
