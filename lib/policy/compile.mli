(** The policy compiler: IR → total first-match classifier → named,
    prioritized flow rules.

    The intermediate form is a {e total} classifier — a priority-ordered
    rule list in which some rule matches every packet (the compiler
    maintains a trailing catch-all). Totality is the invariant that
    makes the combinator constructions correct: [par] is the
    lexicographic cross-product with atom-set union, [seq] substitutes
    the right classifier through the pre-image of each left atom's
    rewrites, [ite] restricts each branch to the predicate's rules —
    all three only compose correctly when both inputs are total and
    {!Openflow.Of_match.intersect} is exact, which it is.

    A [par] chain is flattened and cross-unioned as a balanced tree; the
    rows and their order are those of the left fold, so the output does
    not depend on how the chain nests. Row pairs whose exact values
    differ on one chosen field are skipped without testing.

    Correctness is stated against {!Interp.eval}:
    [classify (compile p) h = Interp.eval p h] for every packet [h] —
    the randomized property the test suite checks over 500+ cases. *)

type rule = { rmatch : Openflow.Of_match.t; atoms : Ir.atom list }
(** One classifier row: packets matching [rmatch] (and no earlier row)
    produce [atoms]. [atoms = []] is an explicit drop. *)

type classifier = rule list

val compile : Ir.t -> (classifier, string) result
(** Deterministic (same policy → same classifier). Equal matches are
    deduplicated keeping the first; full subsumption-based shadow
    elimination runs when the classifier is ≤ 2000 rules (a fixed,
    deterministic threshold). [Error] on ill-formed policies and on
    blow-ups past the internal size guards — compilation never loops or
    exhausts memory on adversarial input. *)

val classify : classifier -> Packet.Headers.t -> Ir.atom list
(** First-match evaluation — the compiled side of the equivalence
    property. Returns [[]] past the last rule (unreachable on compiler
    output, which is total). *)

val emit :
  rmatch:Openflow.Of_match.t ->
  Ir.atom list ->
  (Openflow.Action.t list, string) result
(** Render an atom set as one OpenFlow 1.0 action list under accumulate
    semantics (each output sends the frame as rewritten so far). Atoms
    are emitted least-rewritten first; a field that must be {e restored}
    to its original value between outputs is re-set from the match when
    the match pins it (exact field, or /32 prefix for the nw
    addresses) — otherwise the rule is honestly [Error] (unrealizable
    in a single OF 1.0 action list; the classic NetCore limitation),
    never silently wrong. *)

type flow_rule = {
  name : string;
      (** ["pol_" ^ 16 hex] — content-addressed over (match, actions),
          {e not} priority, so an unchanged rule keeps its flow file
          across recompiles and the installer can diff by name. *)
  of_match : Openflow.Of_match.t;
  priority : int;
      (** Descending from {!priority_base} in steps of a gap sized so
          all rules stay above {!priority_floor} (above every app's
          default 0x8000 flows); the gaps are what let the incremental
          installer renumber only a changed segment. *)
  actions : Openflow.Action.t list;
  atoms : Ir.atom list;
}

val priority_base : int
val priority_floor : int

val to_flows : Ir.t -> (flow_rule list, string) result
(** The full pipeline: compile, dedup/shadow-eliminate, emit each rule's
    action list, name and prioritize. [Error] if any rule is
    unrealizable (the message names the rule's match). *)

val render : flow_rule list -> string
(** Canonical bytes for a compiled rule list — two compiles of the same
    policy are byte-identical (the determinism property), and the
    engine hashes this to skip no-op recompiles. *)
