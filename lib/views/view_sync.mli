(** The view sync engine (paper §4.2): every view is "a daemon that
    translates between two trees", and this is that daemon's loop,
    written once. A view ({!Slicer}, {!Big_switch}) supplies only its
    {!translation}; the engine owns the per-view-flow table, the poll,
    [error]-file reporting, deletion, and the traffic between the two
    trees.

    One {!run}:
    + the view's [refresh] (its topology mirror);
    + per view switch, the {b poll}: open its [flows/] once, list it
      once with each entry's inode ({!Vfs.Fs.readdir_ino_at}), and
      read each flow's [version] through that handle. A flow whose
      commit is news is opened, judged by [flow_down] under
      {!Yancfs.Flowdir.read_reporting} (a rejection lands in the view
      flow's [error] file), and its master flows upserted — each
      committed with a fresh version chain and no [buffer_id]; master
      flows the previous translation made and this one does not are
      removed. A rejected commit installs nothing, so it removes what
      the flow's earlier version made;
    + per view switch, the {b counting} flow's (the first master flow
      of each view flow) [counters/] copied onto the view flow, each
      master switch's [flows/] opened once;
    + per view switch, its [packet_out/] spool drained and each request
      re-queued on the master as [packet_out] translates it (an empty
      list drops it);
    + per master switch, its packet-ins drained from the engine's
      subscription and republished on the view where [packet_in] maps
      them.

    {b Staleness.} A commit is news by the driver's rule,
    {!Yancfs.Flowdir.is_news}: the version rose or the directory's inode
    changed, so a view flow deleted and re-created between two polls
    re-syncs even though its version chain restarted below the number
    synced before.

    {b Poll cost.} With no flow changed, no counters reported and no
    event or packet-out queued, a view switch of [n] flows costs
    [n + 3] crossings (open, listing, [n] version reads, the
    [packet_out/] listing) plus [1 + 2n] for the counter probe (one
    open per master switch, two reads per flow), plus one drain
    listing per master switch and the view's [refresh].

    {b Deletion.} A view flow gone from its switch's listing, or every
    view flow of a view switch that is gone, takes every master flow
    made from it along ([ENOENT] on the master is not a fault).

    {b Containment.} The view's owner may replace any directory or file
    of its tree with a symlink. Every view-side call is made under
    {!view_cred}, the engine's credential floored at the view root
    ({!Vfs.Cred.beneath}), so a walk that a symlink would take out of
    the view fails with [EXDEV] in the VFS and nothing is read or
    written through it; the refusal is counted in [views.refused],
    apart from [app.fs_errors], which the health probes judge Crit. A
    view switch's [flows/] that cannot be opened for any reason but
    [ENOENT] keeps the master flows made from it. The floor costs no
    crossing.

    Every other failed write is counted in [app.fs_errors]; both are
    logged under the engine's name. *)

type master_flow = { switch : string; name : string; flow : Yancfs.Flowdir.t }
(** A flow to install on master switch [switch] as [name]. *)

type 'v translation = {
  refresh : 'v -> unit;  (** the view's topology mirror, first in each run *)
  view_switches : 'v -> string list;  (** the view switches to poll *)
  master_switches : 'v -> string list;  (** the master switches to hear *)
  flow_down :
    'v -> switch:string -> string -> Yancfs.Flowdir.t ->
    (master_flow list, string) result;
      (** A view flow (switch, name, committed flow) as master flows,
          the counting flow first, or the message for its [error]
          file. *)
  packet_in :
    'v -> switch:string -> Yancfs.Eventdir.event -> (string * int) option;
      (** A master switch's packet-in as the view (switch, in_port) it
          shows up on, or [None] to drop it. *)
  packet_out :
    'v -> switch:string -> Yancfs.Outdir.request ->
    (string * Yancfs.Outdir.request) list;
      (** A view switch's packet-out as the master (switch, request)s to
          queue; the engine submits each request's [in_port], [actions]
          and [data]. *)
}

type t

val create :
  cred:Vfs.Cred.t -> master:Yancfs.Yanc_fs.t -> view_fs:Yancfs.Yanc_fs.t ->
  name:string -> t
(** [name] is the daemon's name in logs and its packet-in buffer's on
    the master. *)

val subscribe : t -> string list -> unit
(** Buffer these master switches' packet-ins from now on. {!run}
    subscribes to each of [master_switches] on its first drain, so a
    packet-in that arrives before then reaches the view only if its
    switch was subscribed here. *)

val run : t -> 'v translation -> 'v -> unit

val checked : t -> string -> ('a, Vfs.Errno.t) result -> unit
(** Count and log a failed write of the view's own (its [refresh]):
    [EXDEV] in [views.refused], any other errno in [app.fs_errors]. *)

val view_cred : t -> Vfs.Cred.t
(** The credential of every view-side call, the translations' own
    writes into the view included: [create]'s, floored at the view
    root. *)

val accepted : t -> int
(** View flow commits [flow_down] translated. *)

val rejected : t -> int
(** View flow commits [flow_down] refused. *)
