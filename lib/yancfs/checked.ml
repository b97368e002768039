let report fs what path = function
  | Ok _ -> ()
  | Error e ->
    Telemetry.Registry.incr
      (Telemetry.Registry.counter (Vfs.Fs.registry fs) "yancfs.fs_errors");
    Logs.err (fun m ->
        m "yancfs: %s %s: %s" what (Vfs.Path.to_string path) (Vfs.Errno.message e))
