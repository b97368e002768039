(** Per-switch dirty-flow commit queue (the producer side of the
    commit pipeline).

    Writers mutate flow directories; fsnotify events name the flow that
    changed; the driver {!mark}s that flow key here and later {!take}s a
    batch and programs only those entries — O(dirty) per tick instead of
    the old event-triggered full rescan, which re-listed and re-stat'ed
    the entire table (O(flows), with O(flows²) deletion detection) on
    every change.

    Semantics follow the producer-state-table discipline:
    - a key marked while already pending coalesces (last-write-wins:
      the flush reads the directory's {e current} state, so N writes to
      one flow in a tick cost one flow_mod);
    - keys flush in first-marked order, bounded per batch;
    - a {e sweep} request (queue overflow) subsumes the per-key state:
      the consumer runs one full reconcile instead and {!clear}s the
      queue.

    Single-threaded like the rest of the simulator; no locking. *)

type t

val create : unit -> t

val mark : t -> string -> bool
(** Record a dirty flow key. Returns [false] when the key was already
    pending (the mark coalesced), [true] when it was newly enqueued. *)

val mark_sweep : t -> unit
(** Request a full reconcile: events were lost (overflow). *)

val take_sweep : t -> bool
(** Consume the sweep request, if any. *)

val sweep_pending : t -> bool
(** A sweep request is queued (without consuming it) — the complement
    [is_empty] deliberately ignores. *)

val take : ?max:int -> t -> string list
(** Up to [max] pending keys (default: all), oldest mark first; the
    keys stop being pending. *)

val pending : t -> int

val is_empty : t -> bool
(** No pending keys — says nothing about a pending sweep. *)

val clear : t -> unit
(** Drop all pending keys and any sweep request (after a sweep
    reconciled everything). *)
