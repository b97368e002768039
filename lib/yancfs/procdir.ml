module Path = Vfs.Path
module Fs = Vfs.Fs

type t = { fs : Fs.t; proc : Path.t }

let cred = Vfs.Cred.root

let mkdir_p fs path = Checked.report fs "proc mkdir" path (Fs.mkdir_p fs ~cred path)

let add_file_raw fs path gen =
  (match Fs.create_file fs ~cred path with
  | Ok () | Error Vfs.Errno.EEXIST -> ()
  | Error _ as e -> Checked.report fs "proc file" path e);
  Checked.report fs "proc generator" path (Fs.set_generator fs path gen)

let add_file t path gen = add_file_raw t.fs path gen

let mount ?(proc = Layout.default_proc_root) ~fs ~telemetry () =
  List.iter (mkdir_p fs)
    [ proc; Layout.proc_apps_dir ~proc; Layout.proc_switches_dir ~proc ];
  let t = { fs; proc } in
  add_file t (Layout.proc_metrics ~proc) (fun () ->
      Telemetry.Registry.render
        (Telemetry.Registry.snapshot (Telemetry.registry telemetry)));
  add_file t (Layout.proc_trace_pipe ~proc) (fun () ->
      Telemetry.Tracer.render_pipe (Telemetry.tracer telemetry));
  add_file t (Layout.proc_health ~proc) (fun () ->
      Telemetry.Health.render
        (Telemetry.Health.evaluate
           (Telemetry.Registry.snapshot (Telemetry.registry telemetry))));
  add_file t (Layout.proc_blackbox ~proc) (fun () ->
      Telemetry.Blackbox.render (Telemetry.blackbox telemetry));
  t

let root t = t.proc

let add_app t ~name ~stat =
  mkdir_p t.fs (Layout.proc_app ~proc:t.proc name);
  add_file t (Layout.proc_app_stat ~proc:t.proc name) stat

let add_switch t ~name ~stat =
  mkdir_p t.fs (Layout.proc_switch ~proc:t.proc name);
  add_file t (Layout.proc_switch_stat ~proc:t.proc name) stat
