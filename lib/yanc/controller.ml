type version = V10 | V13

type t = {
  fs : Vfs.Fs.t;
  yfs : Yancfs.Yanc_fs.t;
  net : Netsim.Network.t;
  manager : Driver.Manager.t;
  scheduler : Scheduler.t;
  telemetry : Telemetry.t;
  proc : Yancfs.Procdir.t;
}

(* The netsim's datapath and link counters are per-switch and
   per-link simulated-hardware state; the registry samples their
   fleet-wide sums as gauges, beside the counters the file system,
   fsnotify and the drivers bump in place. *)
let register_probes ~telemetry ~net =
  let reg = Telemetry.registry telemetry in
  let gi name f =
    Telemetry.Registry.gauge reg name (fun () -> float_of_int (f ()))
  in
  let module FC = Netsim.Flow_table.Cost in
  let dp f () = f (Netsim.Network.datapath_cost net) in
  gi "datapath.lookups" (dp FC.lookups);
  gi "datapath.entries_examined" (dp FC.entries_examined);
  gi "datapath.subtables_visited" (dp FC.subtables_visited);
  gi "datapath.microflow_hits" (dp FC.micro_hits);
  gi "datapath.microflow_misses" (dp FC.micro_misses);
  gi "datapath.invalidations" (dp FC.invalidations);
  gi "net.frames_delivered" (fun () -> fst (Netsim.Network.stats net));
  gi "net.frames_dropped" (fun () -> snd (Netsim.Network.stats net))

let create ?root ?proc_root ?(fs = Vfs.Fs.create ()) ?tracing ?tuning ?seed
    ~net () =
  (* One registry: the file system's, which its counters live in. *)
  let telemetry =
    Telemetry.create ~registry:(Vfs.Fs.registry fs) ?tracing ()
  in
  let yfs = Yancfs.Yanc_fs.create ?root ~telemetry fs in
  let proc = Yancfs.Procdir.mount ?proc:proc_root ~fs ~telemetry () in
  register_probes ~telemetry ~net;
  let manager = Driver.Manager.create ?tuning ?seed ~yfs ~net () in
  (* Liveness as registry series, so the health probes can judge the
     fleet from a snapshot alone. *)
  let reg = Telemetry.registry telemetry in
  Telemetry.Registry.gauge reg "driver.attached_switches" (fun () ->
      float_of_int (List.length (Driver.Manager.attached manager)));
  Telemetry.Registry.gauge reg "driver.dead_switches" (fun () ->
      float_of_int
        (List.length
           (List.filter
              (fun (_, s) -> s = Driver.Driver_intf.Dead)
              (Driver.Manager.statuses manager))));
  { fs; yfs; net; manager; scheduler = Scheduler.create ~telemetry ();
    telemetry; proc }

let fs t = t.fs

let datapath_cost t = Netsim.Network.datapath_cost t.net

let yfs t = t.yfs

let net t = t.net

let manager t = t.manager

let telemetry t = t.telemetry

let proc t = t.proc

let scheduler t = t.scheduler

let to_mgr_version = function
  | V10 -> Driver.Manager.V10
  | V13 -> Driver.Manager.V13

let switch_stat t ~dpid () =
  let b = Buffer.create 128 in
  let put name v = Buffer.add_string b (Printf.sprintf "%s %s\n" name v) in
  put "dpid" (Int64.to_string dpid);
  (match Driver.Manager.switch_name t.manager ~dpid with
  | Some name -> put "name" name
  | None -> ());
  (match Driver.Manager.driver_protocol t.manager ~dpid with
  | Some p -> put "protocol" p
  | None -> ());
  (match Driver.Manager.switch_status t.manager ~dpid with
  | Some s -> put "status" (Driver.Driver_intf.status_to_string s)
  | None -> ());
  (match Driver.Manager.link_counters t.manager ~dpid with
  | None -> ()
  | Some (c : Driver.Driver_intf.link_counters) ->
    put "disconnects" (string_of_int c.disconnects);
    put "retries" (string_of_int c.retries);
    put "resyncs" (string_of_int c.resyncs);
    put "resync_installs" (string_of_int c.resync_installs);
    put "resync_deletes" (string_of_int c.resync_deletes);
    put "keepalives_sent" (string_of_int c.keepalives_sent));
  (match Netsim.Network.switch t.net dpid with
  | None -> ()
  | Some sw ->
    let c = Netsim.Sim_switch.datapath_cost sw in
    let module FC = Netsim.Flow_table.Cost in
    put "lookups" (string_of_int (FC.lookups c));
    put "entries_examined" (string_of_int (FC.entries_examined c));
    put "subtables_visited" (string_of_int (FC.subtables_visited c));
    put "microflow_hits" (string_of_int (FC.micro_hits c));
    put "microflow_misses" (string_of_int (FC.micro_misses c));
    put "invalidations" (string_of_int (FC.invalidations c)));
  Buffer.contents b

let attach t ~dpid ~version =
  Driver.Manager.attach t.manager ~dpid ~version:(to_mgr_version version);
  Yancfs.Procdir.add_switch t.proc ~name:(Int64.to_string dpid)
    ~stat:(switch_stat t ~dpid)

let attach_switches ?(version = V10) t =
  List.iter
    (fun sw -> attach t ~dpid:(Netsim.Sim_switch.dpid sw) ~version)
    (Netsim.Network.switches t.net)

let app_stat t name () =
  match List.assoc_opt name (Scheduler.stats t.scheduler) with
  | None -> ""
  | Some (s : Scheduler.app_stats) ->
    Printf.sprintf "schedule %s\niterations %d\nruntime_ns %d\nlast_run %s\n"
      s.schedule s.iterations s.runtime_ns
      (if s.last_run = neg_infinity then "never"
       else Printf.sprintf "%.6f" s.last_run)

let add_app t app =
  Scheduler.add t.scheduler app;
  let name = app.Apps.App_intf.name in
  Yancfs.Procdir.add_app t.proc ~name ~stat:(app_stat t name)

let add_policy_engine ?dir t =
  let engine = Apps.Policy_engine.create ?dir ~cred:Vfs.Cred.root t.yfs in
  add_app t (Apps.Policy_engine.app engine);
  Yancfs.Procdir.add_file t.proc
    (Yancfs.Layout.proc_policy ~proc:(Yancfs.Procdir.root t.proc))
    (fun () -> Apps.Policy_engine.status engine);
  engine

let now t = Netsim.Network.now t.net

let step t =
  let now = Netsim.Network.now t.net in
  Vfs.Fs.set_time t.fs now;
  let tracer = Telemetry.tracer t.telemetry in
  Telemetry.Tracer.set_now tracer now;
  Telemetry.Tracer.bump_round tracer;
  Driver.Manager.step t.manager ~now;
  ignore (Scheduler.tick t.scheduler ~now);
  Driver.Manager.step t.manager ~now

let run_for ?(tick = 0.05) t duration =
  let deadline = Netsim.Network.now t.net +. duration in
  while Netsim.Network.now t.net < deadline do
    step t;
    Netsim.Network.run t.net;
    if Netsim.Network.pending_events t.net = 0 then
      Netsim.Network.advance_idle t.net tick
  done

let run_until ?(tick = 0.05) ?(timeout = 30.) t pred =
  let deadline = Netsim.Network.now t.net +. timeout in
  let ok = ref (pred ()) in
  while (not !ok) && Netsim.Network.now t.net < deadline do
    step t;
    Netsim.Network.run t.net;
    if Netsim.Network.pending_events t.net = 0 then
      Netsim.Network.advance_idle t.net tick;
    ok := pred ()
  done;
  !ok
