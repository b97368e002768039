(** The [/yanc/.proc] subtree — yanc's procfs analog.

    Linux's observability story is the everything-is-a-file thesis
    applied to introspection: /proc and ftrace's trace_pipe are kernel
    state rendered at read time. This module mounts the same idea on the
    controller's VFS, so observability needs {e zero new API} — any
    application (or the shell's [cat]) reads ordinary files:

    {v
    /yanc/.proc
    ├── metrics               # the whole registry, "name value" lines
    ├── trace_pipe            # completed spans; consumed on read
    ├── health                # Telemetry.Health probe report (status line first)
    ├── blackbox              # flight-recorder window; NOT consumed on read
    ├── fsck                  # hardware ≡ FS ≡ policy (status line first)
    ├── apps/<name>/stat      # one line per scheduler entry
    └── switches/<dpid>/stat  # per-switch driver + datapath state
    v}

    Every file is a {!Vfs.Fs.set_generator} node: content is computed
    from live state at each read, nothing is written back, and
    [trace_pipe] inherits the tracer's consume-on-read semantics. *)

type t

val mount :
  ?proc:Vfs.Path.t -> fs:Vfs.Fs.t -> telemetry:Telemetry.t -> unit -> t
(** Create the subtree (default {!Layout.default_proc_root}) and wire
    [metrics] and [trace_pipe] to [telemetry]. Idempotent over an
    existing tree. *)

val root : t -> Vfs.Path.t

val add_app : t -> name:string -> stat:(unit -> string) -> unit
(** Publish [apps/<name>/stat]; the closure renders at read time. *)

val add_switch : t -> name:string -> stat:(unit -> string) -> unit
(** Publish [switches/<name>/stat] (callers use the dpid as the name). *)

val add_file : t -> Vfs.Path.t -> (unit -> string) -> unit
(** Escape hatch: any extra generated file under (or outside) the proc
    root. *)
