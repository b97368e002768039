(** An inotify-like notifier over a {!Vfs.Fs.t}.

    A notifier owns a bounded event queue and any number of watches. It
    is implemented purely as a subscriber of the VFS mutation stream —
    "use of the *notify systems comes free, requiring no additional
    lines of code to the yanc file system" (paper §5.2).

    Watches are path-based (the simulation has no persistent inode
    handles across rename); a watch placed on a directory reports events
    for its direct children, a watch placed on a file reports events on
    the file itself, and [~recursive:true] extends a directory watch to
    the whole subtree (fanotify-style).

    The layout is Linux fsnotify's: a notifier is an inotify {e group}
    (a queue, its watch descriptors, coalescing, the overflow sentinel
    and a wake callback), its watches are {e marks}, and the marks of
    every [Indexed] notifier on one file system live in one shared
    {!Routing} trie behind one dispatcher with one file-system hook. A
    mutation is routed once, in O(path depth + matching watches) however
    many notifiers share the file system; the matched watches are then
    grouped by notifier and each group is queued on its owner. The
    dispatcher appears when the first notifier is created on a file
    system and its hook is released when the last one closes. (A hook
    subscribed by anyone else between two notifiers' creations starts a
    fresh dispatcher for the later ones, so each notifier keeps its
    creation position among the file system's subscribers.)

    {b Ordering.} Within one mutation, notifiers are served in creation
    order — the order their own hooks ran in when each notifier had one
    — and each notifier receives its events in ascending
    watch-descriptor order, a rename's [Moved_from] events before its
    [Moved_to] ones. So every notifier's event sequence, and the global
    order of wake callbacks across notifiers, match what a private hook
    and a private index per notifier would produce. Different file
    systems (e.g. DFS replicas) have separate dispatchers and never see
    each other's mutations.

    Back-to-back identical [Modified] events on the same (watch, path)
    coalesce into one, as inotify merges repeated IN_MODIFY: an event
    merges only with the event currently at the {e tail} of the queue,
    so an intervening event on any other path or watch — or a drain
    that empties the queue — is a coalescing boundary. *)

type t

type mask = int
(** A bitset of {!Event.bit} values: the event kinds the watch is
    interested in. *)

val mask : Event.kind list -> mask

val all : mask
(** Every kind except [Overflow] (overflow sentinels are delivered
    unconditionally). *)

val mask_mem : Event.kind -> mask -> bool

type backend =
  | Indexed  (** the file system's shared dispatcher; the default *)
  | Linear   (** the reference: a private hook and a full scan of this
                 notifier's watches, kept for equivalence tests and
                 benches *)

val create : ?backend:backend -> ?queue_limit:int -> Vfs.Fs.t -> t
(** [queue_limit] (default 16384) bounds the pending-event queue,
    sentinel included: once the queue holds [queue_limit - 1] events the
    next event is dropped and replaced by a final {!Event.Overflow}
    sentinel, so the queue never exceeds [queue_limit]. Further events
    are counted as dropped (see {!overflows}) until the sentinel is
    read. *)

val close : t -> unit
(** Detach from the file system: drop this notifier's watches (from the
    shared trie, for [Indexed]) and, for the last notifier of a
    dispatcher or for a [Linear] one, its file-system hook. Pending
    events remain readable; watches added afterwards never fire. *)

val add_watch : ?recursive:bool -> t -> Vfs.Path.t -> mask -> int
(** Returns a watch descriptor. The path need not exist yet: a watch on
    a not-yet-created directory becomes live when the directory
    appears (this differs from inotify and is convenient for watching
    e.g. a switch directory that a driver will create). *)

val rm_watch : t -> int -> unit

val read_events : ?max:int -> t -> Event.t list
(** Drain pending events, oldest first; at most [max] of them when
    given, leaving the rest queued for the next call — the batched
    drain watch-driven daemons use to bound their per-tick work. Counts
    as one kernel crossing ({!Vfs.Fs.syscall}). *)

val pending : t -> int

val set_wakeup : t -> (unit -> unit) -> unit
(** Install a callback fired whenever an event is queued (not on
    coalesces or overflow drops — the queue already held something
    then). Lets a scheduler park a consumer until its notifier has
    something to read instead of polling [pending]. *)

val has_watches : t -> bool
(** Whether any watch is live; always false once closed. *)

val coalesced : t -> int
(** Events merged into their predecessor over this notifier's lifetime. *)

val overflows : t -> int
(** Events dropped on queue overflow over this notifier's lifetime. *)

val register_metrics : t -> prefix:string -> Telemetry.Registry.t -> unit
(** Publish this notifier's live queue depth and lifetime
    coalesced/overflow counts as gauges named
    [fsnotify.<prefix>.{pending,coalesced,overflows}] — the per-consumer
    view beside the file system's registry counters
    [fsnotify.{events_dispatched,watches_visited,events_coalesced,overflows}],
    which every notifier on it bumps. *)
