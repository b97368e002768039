(** The unified metrics registry — one namespace for every counter the
    controller exports, consumed through {!snapshot}/{!render} (the
    bytes behind [/yanc/.proc/metrics]).

    Three kinds of series:

    - {e counters}: monotonically increasing integers owned by the
      registry. [counter] returns a handle; {!incr}/{!add} on a handle
      are plain field mutations — the record path allocates nothing.
      Every count is one: a component fetches its handles once at
      create and bumps them in place, so there is no second counter
      store to sample.
    - {e gauges}: sampled on demand from a callback, for state rather
      than counts — queue depths, high-water marks, stall times, sums
      over per-object simulated hardware ([Flow_table.Cost] per
      switch).
    - {e histograms}: log₂-bucketed latency distributions (bucket [i]
      holds observations in [[2^i, 2^{i+1})] nanoseconds). {!observe}
      mutates a preallocated bucket array — no allocation per record.
      Snapshots flatten each histogram to [.count]/[.p50]/[.p99]/[.max].

    Names are dot-separated lowercase ([vfs.crossings],
    [sched.routerd.iterations]); [counter]/[histogram] are get-or-create
    so independent components may share a series by name. *)

type t

type counter
type histogram

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Get or create. The handle stays valid for the registry's lifetime. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> (unit -> float) -> unit
(** Register (or replace) a sampled series; the callback runs at each
    {!snapshot} and must not recurse into the registry's consumers. *)

(** {1 Histograms} *)

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Record one latency in seconds (bucketed at nanosecond granularity). *)

val hist_count : histogram -> int
val hist_max : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h 0.99]: the {e upper} bound of the bucket holding the
    rank-q observation, clamped to the true maximum — 0 on an empty
    series.

    Quantization error: buckets are powers of two ([2^i, 2^{i+1}) ns),
    so the reported value is never below the true percentile and
    overstates it by strictly less than 2× (the worst case is an
    observation just above a bucket's lower bound reported at the
    bucket's upper bound). Reporting the upper bound is deliberate:
    a latency SLO judged against it can only fail conservatively,
    whereas the lower bound would understate tails by the same factor. *)

val hist_bucket : histogram -> int -> int
(** Raw occupancy of log₂ bucket [i] (0 out of range) — for consumers
    that merge or re-derive statistics themselves (tests, rollups). *)

val histograms : t -> (string * histogram) list
(** Sorted by name. *)

(** {1 Snapshots} *)

type snapshot
(** An immutable, point-in-time copy: later mutations of the registry
    are not reflected in an already-taken snapshot. *)

val snapshot : t -> snapshot

val merged_snapshot : t list -> snapshot
(** The cluster rollup: one snapshot over several registries — counters
    and gauges {e summed} by name, histograms merged {e bucket-wise}
    before flattening. Log₂ buckets compose exactly, so the merged
    [.p50]/[.p99] are true percentiles of the union of all nodes'
    observations (to the same ≤2× bucket quantization as
    {!percentile}), never an average of per-node percentiles; [.max] is
    the max of maxes. Summing gauges is right for per-node facts
    (busy seconds, spans recorded) — cluster-global facts should be
    appended by the caller once, not sampled per node. *)

val entries : snapshot -> (string * float) list
(** Sorted by name; histograms appear flattened as [name.count],
    [name.p50], [name.p99], [name.max]. *)

val of_entries : (string * float) list -> snapshot
(** Re-pack entries (sorting by name) — how a rollup appends
    cluster-global series ([cluster.live_nodes], [cluster.unowned_shards])
    that must be computed once, not summed per node. *)

val find : snapshot -> string -> float option

val render : snapshot -> string
(** One ["name value"] line per entry — the [/yanc/.proc/metrics]
    format; every line splits on one space and the value parses as a
    float. *)

val render_value : float -> string
(** The value formatting {!render} uses (integral values print without a
    fractional part) — for consumers building their own listings over
    {!entries}. *)

val pp : Format.formatter -> snapshot -> unit
