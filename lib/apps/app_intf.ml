(** The application model (paper §2): network applications are ordinary
    processes — daemons that run continuously, cron jobs that run
    periodically, and oneshot commands. An app is just a named closure
    over a yanc root and a credential; the scheduler in the core library
    drives it. Nothing here knows about protocols or switches — apps see
    only the file system. *)

type schedule =
  | Daemon            (** every scheduler round *)
  | Cron of float     (** every [period] simulated seconds *)
  | Oneshot           (** exactly once *)

type t = {
  name : string;
  schedule : schedule;
  run : now:float -> unit;
  pending : (unit -> bool) option;
      (** Event-driven daemons expose whether work is queued (typically
          [Fsnotify.Notifier.pending > 0]); the scheduler skips their
          tick when nothing is. [None] means "always run". *)
}

let daemon ?pending ~name run = { name; schedule = Daemon; run; pending }

let cron ~name ~period run = { name; schedule = Cron period; run; pending = None }

let oneshot ~name run = { name; schedule = Oneshot; run; pending = None }

(* No write to the tree is dropped silently: each failure is counted in
   the app's fs_errors counter, which the health probes judge Crit, and
   logged as "<who>: <what>: <reason>". *)
let fs_failed errors who what msg =
  Telemetry.Registry.incr errors;
  Logs.err (fun m -> m "%s: %s: %s" who what msg)

let checked errors who what = function
  | Ok _ -> ()
  | Error e -> fs_failed errors who what (Vfs.Errno.message e)

(* The app.fs_errors counter of the mount's registry, shared by the
   daemons that install flows. Fetch it once at create. *)
let fs_errors yfs =
  Telemetry.Registry.counter
    (Telemetry.registry (Yancfs.Yanc_fs.telemetry yfs))
    "app.fs_errors"
