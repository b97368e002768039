(** Declarative health/SLO probes — the policy behind
    [/yanc/.proc/health] and [/yanc/cluster/.proc/health].

    A probe names a registry series, a limit, and the severity of
    exceeding it; {!evaluate} is a pure function of one
    {!Registry.snapshot}, so the same table judges a single node and
    the merged fleet rollup. A series the snapshot doesn't carry makes
    the probe not-applicable (reported [Ok] with value [na]) rather
    than an error — the single-node report simply has no shard
    probes. *)

type level = Ok | Warn | Crit

type probe = {
  name : string;
  series : string;
  breach : level;  (** severity when [value > limit] *)
  limit : float;
  why : string;
}

type verdict = { probe : probe; level : level; value : float option }

val defaults : probe list
(** The standing SLO table: dead switches, driver and policyd fs
    errors, unowned shards and takeover-latency p99 over 5 s are [Crit];
    install-latency p99 over 256 rounds and trace-ring overruns are
    [Warn]. *)

val evaluate : ?probes:probe list -> Registry.snapshot -> verdict list

val worst : verdict list -> level

val level_to_string : level -> string

val exit_code : level -> int
(** [Crit] is 1; [Ok] and [Warn] are 0 — warnings inform, only a
    broken contract fails a gate (a post-storm fleet with an overrun
    trace ring is healthy). *)

val render : verdict list -> string
(** First line [status ok|warn|crit], then one
    [<probe> <level> value=<v|na> limit=<v> series=<name>] line per
    probe — the [/yanc/.proc/health] payload. *)

val status_of_render : string -> level option
(** Parse the [status] line back out of a rendered report (what
    [yancctl health] does with the health {e file}). *)
