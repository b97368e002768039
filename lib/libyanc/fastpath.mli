(** libyanc (paper §8.1): "a set of network-centric library calls atop a
    shared memory system … a fastpath for e.g. creating flow entries
    atomically and without any context switchings."

    Going through the file system, creating one flow costs one syscall
    per file — a dozen kernel crossings — and "writing flow entries to
    thousands of nodes will result in tens of thousands of context
    switches". The fastpath maps the file system once per batch: the
    whole batch of logical operations is performed inside a single
    modelled crossing ({!Vfs.Fs.suspended} around the batch, one
    {!Vfs.Fs.syscall} charged). The resulting file-system state is
    bit-identical to the slow path, so drivers and fsnotify behave the
    same. *)

type t

val create : ?cred:Vfs.Cred.t -> Yancfs.Yanc_fs.t -> t

val create_flow :
  t -> switch:string -> name:string -> Yancfs.Flowdir.t ->
  (unit, Vfs.Errno.t) result
(** One flow, atomically, one crossing (versus ~12 on the file path). *)

val push_flows :
  t -> (string * string * Yancfs.Flowdir.t) list -> (int, Vfs.Errno.t) result
(** [(switch, name, flow)] triples — the "thousands of nodes" case: the
    entire batch costs one crossing. Returns the number written. *)

val delete_flows : t -> (string * string) list -> (unit, Vfs.Errno.t) result

val read_flow_counters :
  t -> switch:string -> ((string * int64 * int64) list, Vfs.Errno.t) result
(** [(flow, packets, bytes)] for every flow of a switch, one crossing.
    Errors from reaching the switch's flow directory ([ENOENT] for an
    unknown switch, [EACCES]…) are propagated like every sibling call;
    flows whose counter files have not been written yet are skipped. *)

val batch : t -> (Yancfs.Yanc_fs.t -> 'a) -> 'a
(** Run arbitrary file-system work as one crossing — the general form
    the specific calls are built on. *)

val crossings_saved : t -> int
(** Crossings the slow path would have charged minus what this handle
    actually charged (bench instrumentation). *)
