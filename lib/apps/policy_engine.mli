(** The policy engine: network policy as files (ISSUE 10's tentpole).

    Every file under [/yanc/policy/] holds one program in the
    {!Policy.Syntax} concrete syntax. The engine watches the directory;
    on any change it reparses only the touched files, composes every
    readable program in parallel (file-name order), compiles the result
    once ({!Policy.Compile.to_flows}), and installs the rules as
    [pol_*] flows under {e every} switch's [flows/] — from where PR 6's
    dirty-flow commit queue carries them to hardware and PR 5's resync
    re-derives them after a disconnect. The whole chain is traced
    ([policy.parse] → [policy.compile] → [policy.diff] →
    [yancfs.flow_write]) and metered under [policy.*].

    Installation is an {e incremental diff}: rules are content-named,
    so the differ aligns the installed list with the desired one (a
    longest common subsequence of names, see {!anchors}), keeps
    unchanged rules untouched — their files are never rewritten, so no
    flow_mods reach the switch — and writes only the
    changed segment into the priority gaps the initial numbering left.
    A one-clause edit of a large policy is O(changed) commits, which
    [test_policy] and the [@bench-smoke] gate assert via the
    [driver.commit.*] counters.

    Malformed input never tears the engine down: a file that fails to
    parse (or a composition that fails to compile) reports into
    [/yanc/policy/.errors/<name>] and the [policy.compile_errors]
    counter, while the last good rule set stays installed. A write the
    engine cannot make (a flow, an [.errors/] file, its directories) is
    logged and counted in [policy.fs_errors], which
    {!Telemetry.Health} judges Crit. *)

type t

val create :
  ?dir:Vfs.Path.t ->
  cred:Vfs.Cred.t ->
  Yancfs.Yanc_fs.t ->
  t
(** [dir] defaults to {!Yancfs.Layout.policy_root}. Creates [dir] and
    its [.errors/] subdirectory, starts the watches, and adopts any
    [pol_*] flows already installed (so a restarted engine diffs
    against them instead of reinstalling the world). *)

val app : t -> App_intf.t
(** A daemon named ["policyd"], pending exactly when the notifier has
    queued events or a recompile is still owed. *)

val status : t -> string
(** The [/yanc/.proc/policy] report: file/rule/error counts,
    [policy.fs_errors], last error, per-file parse state. *)

val desired : t -> Policy.Compile.flow_rule list
(** The rule set the engine currently wants installed (the last
    successful compile) — the "compiled policy" leg of the chaos
    harness's hardware ≡ filesystem ≡ policy invariant. *)

val anchors : string array -> string array -> string list
(** [anchors installed desired]: a longest common subsequence of two
    name lists, each free of duplicates — the rules the incremental
    diff leaves at their installed priority. A longest increasing
    subsequence of the installed names' desired positions, in
    O(n log n). *)

val flow_prefix : string
(** ["pol_"] — the namespace the engine owns inside each [flows/]
    directory; it never touches flows named otherwise. *)
