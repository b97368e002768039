(** Kernel-crossing cost model (paper §8.1) and name-lookup counters.

    Every public {!Fs} operation models one [syscall] — a user→kernel
    context switch. The paper's performance concern is that "writing flow
    entries to thousands of nodes will result in tens of thousands of
    context switches"; libyanc's shared-memory fastpath exists to remove
    them. This module counts crossings and charges a configurable cost so
    benches can report both the crossing count and the modelled overhead
    of the file-system path versus the fastpath.

    It also counts the path components {!Fs} resolution walks. That
    counter is {e not} gated by {!suspended} — a libyanc batch still
    walks dentries even though it crosses the kernel boundary once. *)

type t

val create : ?switch_cost_ns:float -> unit -> t
(** [switch_cost_ns] defaults to 1000 (a µs-scale user/kernel round trip,
    the right order of magnitude for a FUSE-mediated call). *)

val crossings : t -> int
(** Number of simulated user/kernel boundary crossings so far. *)

val charged_ns : t -> float
(** Total modelled cost, in nanoseconds. *)

val syscall : t -> unit
(** Record one crossing. *)

val suspended : t -> (unit -> 'a) -> 'a
(** Run a function with crossing accounting disabled — used by
    {!Libyanc} batches, where many logical operations share one
    crossing, and by kernel-internal recursion (an op implemented in
    terms of other ops must not double-count). *)

(** {1 Name-lookup counter}

    Bumped by {!Fs} resolution; read by benches. *)

val component_resolved : t -> unit
(** One path component resolved: a hash lookup in a directory plus
    the traversal permission check. *)

val components : t -> int

(** {1 Event-routing / fsnotify counters}

    Bumped by {!Fsnotify.Notifier} dispatch; read by benches and
    [yancctl]. Like the lookup counter these are {e not} gated by
    {!suspended}: they measure routing work, not kernel crossings. *)

val event_dispatched : t -> unit
(** One event enqueued onto a notifier's queue. *)

val visit_watches : t -> int -> unit
(** [n] candidate watches examined while routing one mutation. The
    linear reference scans every watch; the routing index visits only
    the exact-path, parent and ancestor-trie candidates. *)

val event_coalesced : t -> unit
(** A [Modified] event merged into the identical event already at the
    tail of the queue (inotify-style coalescing). *)

val overflow_dropped : t -> unit
(** An event dropped because the queue was full (the reader finds an
    {!Fsnotify.Event.Overflow} sentinel instead). *)

val events_dispatched : t -> int
val watches_visited : t -> int
val events_coalesced : t -> int
val overflows : t -> int

val reset : t -> unit

val pp : Format.formatter -> t -> unit
