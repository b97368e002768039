(** The network fsck: does the hardware hold exactly what the file
    system commits, and does the file system hold exactly what the
    policy engine compiled?

    The paper's §3.4 makes a flow directory's committed files — match,
    actions, priority, timeouts, cookie — the state the driver must put
    in hardware. Per switch, {!switch} reads each flow directory the
    way the driver's commit does ({!Yancfs.Flowdir.read}) and every
    table of the switch ({!Netsim.Sim_switch.flow_stats}, lookup-side
    expiry applied), and compares the two as sets of full {!rule}s.

    Two flow directories may name one hardware identity (match,
    priority); an OpenFlow add with that identity replaces, so hardware
    holds one of them. A committed rule is missing from hardware only
    when no sibling with its identity is installed.

    This is the one place outside [lib/netsim] that reads a hardware
    table. [Controller.create] serves {!render} at [/yanc/.proc/fsck]
    and every cluster replica serves {!render_shards} at
    [/yanc/cluster/.proc/fsck]; both are generator files, computed on
    read. *)

type rule = {
  of_match : Openflow.Of_match.t;
  priority : int;
  actions : Openflow.Action.t list;
  idle_timeout : int;
  hard_timeout : int;
  cookie : int64;
}

(** [Missing]: a desired rule with no flow directory. [Extra]: a
    [pol_*] flow directory no desired rule names. [Differs]: a desired
    rule whose flow directory has another match or actions, or does not
    parse. [Misordered]: file priorities do not strictly descend in the
    desired order. *)
type policy_fault = Missing of string | Extra of string | Differs of string | Misordered

type report = {
  switch : string;  (** [sw<dpid>] *)
  fs_rules : int;  (** distinct committed rules *)
  hw_rules : int;  (** distinct hardware rules *)
  fs_only : rule list;  (** committed, absent from hardware *)
  hw_only : rule list;  (** in hardware, committed by no flow directory *)
  invalid : (string * string) list;
      (** flow directories that do not parse, with the parse error.
          Hardware rightly lacks them, so they alone do not make a
          switch diverge; a rule still installed from an earlier, valid
          version of one shows in [hw_only]. *)
  policy : policy_fault list;
}

val switch :
  Yancfs.Yanc_fs.t -> Netsim.Sim_switch.t -> now:float ->
  desired:Policy.Compile.flow_rule list option -> report
(** Judge one switch against its flow directories in [yfs]. [desired]
    is the policy engine's compiled rule set
    ({!Apps.Policy_engine.desired}), [None] when no engine runs: then
    the [pol_*] leg is skipped. *)

val ok : report -> bool
(** No rule on one side only and no policy fault. *)

val render : report list -> string
(** The [/yanc/.proc/fsck] report. The first line is
    [status ok|diverged], as in the health file; then a
    [switches: N, D diverged, I invalid flow dirs] summary, one line per
    switch and one indented line per finding. *)

(** {1 Clusters} *)

type shard =
  | Owned of string * report  (** owner node, and the switch judged
                                 against the owner's replica *)
  | Unowned of string  (** a switch no live node attaches *)

val shard_ok : shard -> bool
(** An unowned shard is never ok. *)

val render_shards : shard list -> string
(** The [/yanc/cluster/.proc/fsck] report: the status line, a
    [shards: O owned, U unowned, D diverged] summary, then one line per
    shard as in {!render}, tagged with its owner. *)
