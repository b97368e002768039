(* The observability layer (E16): registry snapshot semantics, the span
   ring's ftrace-style overrun contract, trace_pipe consume-on-read, and
   one packet-in traced end to end through the live controller into
   /yanc/.proc. *)

module T = Telemetry
module N = Netsim
module Fs = Vfs.Fs

let cred = Vfs.Cred.root

(* --- registry ------------------------------------------------------------- *)

let test_counters_and_gauges () =
  let reg = T.Registry.create () in
  let c = T.Registry.counter reg "a.hits" in
  T.Registry.incr c;
  T.Registry.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (T.Registry.value c);
  Alcotest.(check int)
    "get-or-create shares the series" 5
    (T.Registry.value (T.Registry.counter reg "a.hits"));
  let live = ref 7. in
  T.Registry.gauge reg "a.depth" (fun () -> !live);
  let snap = T.Registry.snapshot reg in
  Alcotest.(check (option (float 0.))) "gauge sampled" (Some 7.)
    (T.Registry.find snap "a.depth");
  Alcotest.(check (option (float 0.))) "counter exported" (Some 5.)
    (T.Registry.find snap "a.hits")

let test_snapshot_isolation () =
  (* A snapshot is a point in time: later mutations must not leak in. *)
  let reg = T.Registry.create () in
  let c = T.Registry.counter reg "x" in
  let live = ref 1. in
  T.Registry.gauge reg "g" (fun () -> !live);
  T.Registry.incr c;
  let snap = T.Registry.snapshot reg in
  T.Registry.add c 100;
  live := 99.;
  Alcotest.(check (option (float 0.))) "counter frozen" (Some 1.)
    (T.Registry.find snap "x");
  Alcotest.(check (option (float 0.))) "gauge frozen" (Some 1.)
    (T.Registry.find snap "g");
  Alcotest.(check (option (float 0.))) "fresh snapshot sees mutation"
    (Some 101.)
    (T.Registry.find (T.Registry.snapshot reg) "x")

let test_histogram_percentiles () =
  let reg = T.Registry.create () in
  let h = T.Registry.histogram reg "lat" in
  (* 90 fast observations and 10 slow ones: p50 must sit in the fast
     bucket, p99 in the slow one. *)
  for _ = 1 to 90 do T.Registry.observe h 1e-6 done;
  for _ = 1 to 10 do T.Registry.observe h 1e-3 done;
  Alcotest.(check int) "count" 100 (T.Registry.hist_count h);
  Alcotest.(check (float 1e-12)) "max" 1e-3 (T.Registry.hist_max h);
  let p50 = T.Registry.percentile h 0.5 in
  let p99 = T.Registry.percentile h 0.99 in
  Alcotest.(check bool) "p50 in the microsecond range" true
    (p50 >= 1e-6 && p50 < 1e-4);
  Alcotest.(check (float 1e-12)) "p99 clamps to the true max" 1e-3 p99;
  let snap = T.Registry.snapshot reg in
  Alcotest.(check (option (float 0.))) "flattened count" (Some 100.)
    (T.Registry.find snap "lat.count")

let test_render_format () =
  let reg = T.Registry.create () in
  T.Registry.add (T.Registry.counter reg "b.n") 3;
  T.Registry.gauge reg "b.ratio" (fun () -> 0.25);
  let lines =
    String.split_on_char '\n' (T.Registry.render (T.Registry.snapshot reg))
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "no empty file" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s has a name" line)
          true (name <> "");
        Alcotest.(check bool)
          (Printf.sprintf "%s value parses" line)
          true
          (Option.is_some (float_of_string_opt v))
      | _ -> Alcotest.failf "line %S does not split into name + value" line)
    lines;
  Alcotest.(check bool) "integers render bare" true
    (List.mem "b.n 3" lines);
  Alcotest.(check bool) "sorted by name" true
    (List.sort compare lines = lines)

(* --- the span ring -------------------------------------------------------- *)

let test_ring_overflow_drops_oldest () =
  let hub = T.create ~tracing:true ~capacity:4 () in
  let tr = T.tracer hub in
  for i = 1 to 7 do
    T.Tracer.set_now tr (float_of_int i);
    T.Tracer.span tr ~stage:(Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "all pushes counted" 7 (T.Tracer.spans_recorded tr);
  Alcotest.(check int) "overrun counted" 3 (T.Tracer.drops tr);
  let recs = T.Tracer.drain tr in
  Alcotest.(check int) "ring holds capacity" 4 (List.length recs);
  Alcotest.(check (list string))
    "oldest dropped, order preserved"
    [ "s4"; "s5"; "s6"; "s7" ]
    (List.map (fun (r : T.Tracer.record) -> r.stage) recs)

let test_drain_consumes_once () =
  let hub = T.create ~tracing:true () in
  let tr = T.tracer hub in
  T.Tracer.span tr ~stage:"once" (fun () -> ());
  Alcotest.(check bool) "pipe carries the span" true
    (String.length (T.Tracer.render_pipe tr) > 0);
  Alcotest.(check string) "second read is empty" ""
    (T.Tracer.render_pipe tr);
  Alcotest.(check int) "drain after drain is empty" 0
    (List.length (T.Tracer.drain tr))

let test_stamp_resume () =
  let hub = T.create ~tracing:true () in
  let tr = T.tracer hub in
  T.Tracer.set_now tr 1.5;
  let id = T.Tracer.fresh tr in
  Alcotest.(check bool) "fresh is nonzero" true (id <> 0);
  T.Tracer.stamp tr "ev:42";
  T.Tracer.clear tr;
  Alcotest.(check int) "cleared" 0 (T.Tracer.current tr);
  Alcotest.(check bool) "resume adopts" true (T.Tracer.resume tr "ev:42");
  Alcotest.(check int) "same trace" id (T.Tracer.current tr);
  T.Tracer.clear tr;
  (* non-consuming: the same key fans out to a second consumer *)
  Alcotest.(check bool) "resume again" true (T.Tracer.resume tr "ev:42");
  T.Tracer.clear tr;
  Alcotest.(check bool) "unknown key refuses" false
    (T.Tracer.resume tr "ev:43");
  (* a span ended under a resumed trace carries its origin time *)
  T.Tracer.set_now tr 3.5;
  ignore (T.Tracer.resume tr "ev:42");
  T.Tracer.span tr ~stage:"later" (fun () -> ());
  (match T.Tracer.drain tr with
  | [ r ] ->
    Alcotest.(check int) "attributed" id r.trace;
    Alcotest.(check (float 1e-9)) "origin preserved" 1.5 r.origin;
    Alcotest.(check (float 1e-9)) "stamped on the sim clock" 3.5 r.t1
  | l -> Alcotest.failf "expected one record, got %d" (List.length l))

let test_disabled_tracer_is_noop () =
  let hub = T.create ~tracing:false () in
  let tr = T.tracer hub in
  Alcotest.(check int) "fresh yields no trace" 0 (T.Tracer.fresh tr);
  Alcotest.(check int) "span runs the thunk"
    9
    (T.Tracer.span tr ~stage:"s" (fun () -> 9));
  Alcotest.(check int) "nothing recorded" 0 (T.Tracer.spans_recorded tr);
  Alcotest.(check string) "pipe is empty" "" (T.Tracer.render_pipe tr)

(* --- one packet-in, end to end through /yanc/.proc ------------------------- *)

type pipe_record = {
  trace : int;
  stage : string;
  t0 : float;
  t1 : float;
  lat : float;
}

let parse_pipe_line line =
  Scanf.sscanf line "trace=%d span=%d parent=%d stage=%s t0=%f t1=%f lat=%f"
    (fun trace _span _parent stage t0 t1 lat -> { trace; stage; t0; t1; lat })

let read_proc ctl name =
  match
    Fs.read_file (Yanc.Controller.fs ctl) ~cred
      (Vfs.Path.of_string_exn ("/yanc/.proc/" ^ name))
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s: %s" name (Vfs.Errno.message e)

let test_packet_in_traced_end_to_end () =
  let built = N.Topo_gen.linear 2 in
  let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
  Yanc.Controller.add_app ctl (Apps.Router.app (Apps.Router.create yfs));
  Yanc.Controller.run_for ctl 3.0;
  (* throw away everything from discovery: the pipe consumes on read *)
  ignore (read_proc ctl "trace_pipe");
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net)
       ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  Alcotest.(check bool) "ping completes" true
    (Yanc.Controller.run_until ~tick:0.002 ctl (fun () ->
         N.Sim_host.ping_results h1 <> []));
  let records =
    String.split_on_char '\n' (read_proc ctl "trace_pipe")
    |> List.filter (fun l -> l <> "")
    |> List.map parse_pipe_line
  in
  Alcotest.(check bool) "the ping left spans" true (records <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s monotonic" r.stage)
        true (r.t1 >= r.t0);
      Alcotest.(check bool)
        (Printf.sprintf "%s latency non-negative" r.stage)
        true (r.lat >= 0.))
    records;
  (* Some trace id must cover the whole pipeline: the packet-in that made
     the router install the path. *)
  let wanted =
    [ "driver.packet_in"; "sched.wake"; "app.routerd"; "yancfs.flow_write";
      "driver.flow_mod"; "switch.install" ]
  in
  let traces =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if r.trace <> 0 then Some r.trace else None)
         records)
  in
  let covers id =
    List.for_all
      (fun stage ->
        List.exists (fun r -> r.trace = id && r.stage = stage) records)
      wanted
  in
  Alcotest.(check bool)
    "one trace spans scheduler -> app -> yancfs -> driver -> switch" true
    (List.exists covers traces);
  (* second read of the pipe is empty: consumed above *)
  Alcotest.(check string) "pipe consumed" "" (read_proc ctl "trace_pipe")

let test_proc_metrics_unifies_the_counters () =
  let built = N.Topo_gen.linear 2 in
  let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
  Yanc.Controller.add_app ctl (Apps.Router.app (Apps.Router.create yfs));
  Yanc.Controller.run_for ctl 2.0;
  let body = read_proc ctl "metrics" in
  let entries =
    String.split_on_char '\n' body
    |> List.filter (fun l -> l <> "")
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | [ name; v ] -> (
             match float_of_string_opt v with
             | Some f -> name, f
             | None -> Alcotest.failf "unparsable value in %S" line)
           | _ -> Alcotest.failf "malformed line %S" line)
  in
  let get name =
    match List.assoc_opt name entries with
    | Some v -> v
    | None -> Alcotest.failf "missing series %s" name
  in
  (* every pre-existing counter surface, one namespace *)
  Alcotest.(check bool) "vfs crossings counted" true (get "vfs.crossings" > 0.);
  Alcotest.(check bool) "components walked" true (get "vfs.components" > 0.);
  Alcotest.(check bool) "fsnotify dispatched" true
    (get "fsnotify.events_dispatched" > 0.);
  (* one fsnotify dispatcher shared by both drivers' notifiers, not one
     hook per driver; the schema is a policy, not a hook *)
  Alcotest.(check (float 0.)) "mutation hooks" 1. (get "vfs.hooks");
  Alcotest.(check bool) "datapath looked up" true (get "datapath.lookups" > 0.);
  Alcotest.(check bool) "scheduler accounted" true
    (get "sched.routerd.iterations" > 0.);
  Alcotest.(check bool) "net frames flowed" true
    (get "net.frames_delivered" > 0.);
  Alcotest.(check bool) "tracer health exported" true
    (get "trace.spans_recorded" > 0.);
  (* the packet-in ring and its record pool export through the same file *)
  Alcotest.(check bool) "pktin ring counted" true
    (get "driver.pktin.published" >= 0.);
  Alcotest.(check bool) "pktin pool gauged" true
    (get "netsim.pool.pktin.allocated" >= 0.);
  (* the per-app and per-switch stat files exist and render *)
  let app_stat = read_proc ctl "apps/routerd/stat" in
  Alcotest.(check bool) "app stat lists iterations" true
    (String.length app_stat > 0
    && List.exists
         (fun l ->
           String.length l >= 10 && String.sub l 0 10 = "iterations")
         (String.split_on_char '\n' app_stat));
  let sw_stat = read_proc ctl "switches/1/stat" in
  Alcotest.(check bool) "switch stat names its dpid" true
    (List.mem "dpid 1" (String.split_on_char '\n' sw_stat))

let test_dfs_counters_join_the_registry () =
  (* On a clustered deployment the replication counters report into the
     same namespace as everything else. *)
  let cluster = Dfs.Cluster.create ~n:3 () in
  let reg = Fs.registry (Dfs.Cluster.node cluster 0) in
  ignore
    (Fs.write_file (Dfs.Cluster.node cluster 0) ~cred
       (Vfs.Path.of_string_exn "/x") "1");
  Dfs.Cluster.flush cluster;
  let snap = T.Registry.snapshot reg in
  let get name =
    match T.Registry.find snap name with
    | Some v -> v
    | None -> Alcotest.failf "missing series %s" name
  in
  Alcotest.(check (float 0.)) "nodes" 3. (get "dfs.nodes");
  Alcotest.(check bool) "writes originate" true (get "dfs.ops_originated" > 0.);
  Alcotest.(check bool) "writes replicate" true (get "dfs.ops_replicated" > 0.);
  Alcotest.(check (float 0.)) "converged" 0. (get "dfs.pending")

(* The file system owns the registry: a controller built over a given
   file system reports that file system's counters, not a copy. *)
let test_controller_over_fs_shares_its_registry () =
  let built = N.Topo_gen.linear 2 in
  let x = Fs.create () in
  let ctl = Yanc.Controller.create ~fs:x ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.5;
  let crossings =
    T.Registry.find (T.Registry.snapshot (Fs.registry x)) "vfs.crossings"
  in
  Alcotest.(check bool) "the run crossed the kernel" true
    (Option.value crossings ~default:0. > 0.);
  let reg = T.registry (Yanc.Controller.telemetry ctl) in
  Alcotest.(check bool) "one registry" true (reg == Fs.registry x);
  Alcotest.(check (option (float 0.)))
    "controller reports x's vfs.crossings" crossings
    (T.Registry.find (T.Registry.snapshot reg) "vfs.crossings")

(* Without a telemetry hub, a yancfs mount reports into its file
   system's registry rather than a private one. *)
let test_bare_yancfs_reports_vfs_series () =
  let fs = Fs.create () in
  let yfs = Yancfs.Yanc_fs.create fs in
  ignore
    (Yancfs.Yanc_fs.add_switch yfs ~cred:Vfs.Cred.root ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
       ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
  let snap = T.Registry.snapshot (T.registry (Yancfs.Yanc_fs.telemetry yfs)) in
  let fs_snap = T.Registry.snapshot (Fs.registry fs) in
  List.iter
    (fun name ->
      let counted = T.Registry.find fs_snap name in
      Alcotest.(check bool) (name ^ " counted") true
        (Option.value counted ~default:0. > 0.);
      Alcotest.(check (option (float 0.)))
        (name ^ " in the yancfs snapshot") counted (T.Registry.find snap name))
    [ "vfs.crossings"; "vfs.components" ];
  Alcotest.(check (option (float 0.))) "hooks gauged, none on a bare mount"
    (Some 0.) (T.Registry.find snap "vfs.hooks")

let test_scheduler_accounting () =
  let built = N.Topo_gen.linear 2 in
  let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
  Yanc.Controller.run_for ctl 1.0;
  match Yanc.Scheduler.stats (Yanc.Controller.scheduler ctl) with
  | [ (name, s) ] ->
    Alcotest.(check string) "app name" "topologyd" name;
    Alcotest.(check string) "daemon schedule" "daemon" s.Yanc.Scheduler.schedule;
    Alcotest.(check bool) "iterations counted" true
      (s.Yanc.Scheduler.iterations > 0);
    Alcotest.(check bool) "last_run advanced" true
      (s.Yanc.Scheduler.last_run > 0.);
    Alcotest.(check bool) "runtime non-negative" true
      (s.Yanc.Scheduler.runtime_ns >= 0)
  | l -> Alcotest.failf "expected one app, got %d" (List.length l)

(* --- series-name goldens ------------------------------------------------------ *)

(* The series names /yanc/.proc/metrics exports are an interface:
   bench/suite reads them by name, and a renamed or dropped series
   reads there as a silent 0. Both lists were recorded from the live
   files; a change to either must be deliberate. *)

let metric_names body =
  String.split_on_char '\n' body
  |> List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | Some i -> Some (String.sub l 0 i)
         | None -> None)

let golden_provision yfs net =
  let sw = Yancfs.Yanc_fs.switch_name_of_dpid in
  List.iter
    (fun (a, b) ->
      match (a, b) with
      | N.Network.Sw (d1, p1), N.Network.Sw (d2, p2) ->
        ignore
          (Yancfs.Yanc_fs.set_peer yfs ~cred ~switch:(sw d1) ~port:p1
             ~peer:(Some (sw d2, p2)));
        ignore
          (Yancfs.Yanc_fs.set_peer yfs ~cred ~switch:(sw d2) ~port:p2
             ~peer:(Some (sw d1, p1)))
      | N.Network.Sw (d, p), N.Network.Hst h
      | N.Network.Hst h, N.Network.Sw (d, p) ->
        let i = int_of_string (String.sub h 1 (String.length h - 1)) in
        ignore
          (Yancfs.Yanc_fs.upsert_host yfs ~cred ~name:h
             ~mac:(N.Topo_gen.host_mac i) ~ip:(Some (N.Topo_gen.host_ip i))
             ~attached_to:(sw d, p) ())
      | N.Network.Hst _, N.Network.Hst _ -> ())
    (N.Network.link_endpoints net)

(* A short k=4 ecmpd storm (with policyd started, so its series show)
   on one controller: 200 arrivals at the default workload profile. *)
let storm_series () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let net = built.N.Topo_gen.net in
  let ctl = Yanc.Controller.create ~net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.6;
  let yfs = Yanc.Controller.yfs ctl in
  golden_provision yfs net;
  Yanc.Controller.add_app ctl
    (Apps.Ecmp_router.app (Apps.Ecmp_router.create yfs));
  ignore (Yanc.Controller.add_policy_engine ctl);
  let wl =
    N.Workload.create ~start:(N.Network.now net) ~seed:0x5E41E5
      ~hosts:(List.length built.N.Topo_gen.host_names) ()
  in
  let injected = ref 0 in
  while !injected < 200 do
    injected :=
      !injected + N.Workload.inject_until wl ~net ~upto:(N.Network.now net);
    Yanc.Controller.step ctl;
    N.Network.run net;
    if N.Network.pending_events net = 0 then N.Network.advance_idle net 0.005
  done;
  Yanc.Controller.run_for ~tick:0.005 ctl 0.25;
  Alcotest.(check bool) "the storm installed paths" true
    (T.Registry.value
       (T.Registry.counter (T.registry (Yanc.Controller.telemetry ctl))
          "app.ecmpd.installs")
    > 0);
  metric_names (read_proc ctl "metrics")

(* The ops journalled on [fs] while [f] runs: their count and one
   digest of them rendered, a write with its bytes. *)
let op_stream fs f =
  let buf = Buffer.create 4096 and ops = ref 0 in
  let hook =
    Fs.subscribe fs (fun op ->
        incr ops;
        Buffer.add_string buf (Format.asprintf "%a" Vfs.Op.pp op);
        (match op with
        | Vfs.Op.Write { data; _ } -> Buffer.add_string buf data
        | _ -> ());
        Buffer.add_char buf '\n')
  in
  f ();
  Fs.unsubscribe fs hook;
  (!ops, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The journalled op stream of a toy storm episode, as one digest: a
   k=4 ecmpd storm of 120 arrivals, then a tail past one stats poll so
   the driver's counter writeback is in it too. Every op from the
   first handshake on is rendered (a write with its bytes) and hashed;
   the golden pins that flow I/O changes how paths are resolved, not
   what is written where or in which order. *)
let storm_op_stream () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let net = built.N.Topo_gen.net in
  let ctl = Yanc.Controller.create ~net () in
  op_stream (Yanc.Controller.fs ctl) (fun () ->
      Yanc.Controller.attach_switches ctl;
      Yanc.Controller.run_for ctl 0.6;
      let yfs = Yanc.Controller.yfs ctl in
      golden_provision yfs net;
      Yanc.Controller.add_app ctl
        (Apps.Ecmp_router.app (Apps.Ecmp_router.create yfs));
      let wl =
        N.Workload.create ~start:(N.Network.now net) ~seed:0x0D16E57
          ~hosts:(List.length built.N.Topo_gen.host_names) ()
      in
      let injected = ref 0 in
      while !injected < 120 do
        injected :=
          !injected + N.Workload.inject_until wl ~net ~upto:(N.Network.now net);
        Yanc.Controller.step ctl;
        N.Network.run net;
        if N.Network.pending_events net = 0 then N.Network.advance_idle net 0.005
      done;
      Yanc.Controller.run_for ~tick:0.05 ctl 5.5)

let test_storm_op_stream_golden () =
  let ops, digest = storm_op_stream () in
  Alcotest.(check int) "ops journalled" 24772 ops;
  Alcotest.(check string) "op stream digest"
    "c5e17b3f58688c1cda295451e296c4fd" digest

(* The op stream of a network whose apps subscribe to packet-ins:
   topologyd and arpd on linear:2 for 5 sim s, with one ARP request
   from h1 for h2 on the way. Every LLDP probe and the ARP answer go
   out through packet_out/, and every packet-in is published into both
   apps' events/ buffers, so the digest pins what the two spools write,
   where and in which order. *)
let subscriber_op_stream () =
  let built = N.Topo_gen.linear 2 in
  let net = built.N.Topo_gen.net in
  let ctl = Yanc.Controller.create ~net () in
  op_stream (Yanc.Controller.fs ctl) (fun () ->
      Yanc.Controller.attach_switches ctl;
      let yfs = Yanc.Controller.yfs ctl in
      Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
      Yanc.Controller.add_app ctl (Apps.Arp_daemon.app (Apps.Arp_daemon.create yfs));
      ignore
        (Yancfs.Yanc_fs.upsert_host yfs ~cred ~name:"h2" ~mac:(N.Topo_gen.host_mac 2)
           ~ip:(Some (N.Topo_gen.host_ip 2)) ());
      Yanc.Controller.run_for ctl 2.0;
      let h1 = Option.get (N.Network.host net "h1") in
      N.Network.send_from_host net "h1"
        [ N.Sim_host.arp_probe h1 ~target:(N.Topo_gen.host_ip 2) ];
      Yanc.Controller.run_for ctl 3.0;
      Alcotest.(check bool) "arpd answered" true
        (List.mem_assoc (N.Topo_gen.host_ip 2) (N.Sim_host.arp_cache h1)))

let test_subscriber_op_stream_golden () =
  let ops, digest = subscriber_op_stream () in
  Alcotest.(check int) "ops journalled" 599 ops;
  Alcotest.(check string) "op stream digest"
    "d1f634f9c4c1aed6deda9bfb88dbb5fe" digest

let cluster_series () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let c = Yanc.Cluster.create ~n:2 ~net:built.N.Topo_gen.net () in
  Yanc.Cluster.run_for ~tick:0.02 c 1.0;
  match
    Fs.read_file
      (Yanc.Controller.fs (Yanc.Cluster.controller c 0))
      ~cred
      (Vfs.Path.of_string_exn "/yanc/cluster/.proc/metrics")
  with
  | Ok s -> metric_names s
  | Error e -> Alcotest.failf "read rollup: %s" (Vfs.Errno.message e)

(* Per-switch series differ only in the dpid: compare them as one. *)
let fold_switches names =
  let is_digit c = c >= '0' && c <= '9' in
  let fold part =
    let n = String.length part in
    if n > 2 && String.sub part 0 2 = "sw"
       && String.for_all is_digit (String.sub part 2 (n - 2))
    then "sw<n>"
    else part
  in
  List.map
    (fun name ->
      String.concat "." (List.map fold (String.split_on_char '.' name)))
    names
  |> List.sort_uniq compare

let storm_golden =
  [ "app.ecmpd.events"; "app.ecmpd.installs"; "app.ecmpd.no_route";
    "app.ecmpd.transit_miss"; "app.ecmpd.unknown_dst"; "app.fs_errors";
    "blackbox.recorded"; "datapath.entries_examined";
    "datapath.invalidations"; "datapath.lookups"; "datapath.microflow_hits";
    "datapath.microflow_misses"; "datapath.subtables_visited";
    "driver.attached_switches"; "driver.commit.adds"; "driver.commit.batches";
    "driver.commit.coalesced"; "driver.commit.deletes"; "driver.commit.keys";
    "driver.commit.latency.count"; "driver.commit.latency.max";
    "driver.commit.latency.p50"; "driver.commit.latency.p99";
    "driver.commit.sweeps"; "driver.dead_switches"; "driver.disconnects";
    "driver.fs_errors"; "driver.keepalives_sent"; "driver.mgr.attached";
    "driver.mgr.runnable"; "driver.mgr.stepped"; "driver.mgr.steps";
    "driver.mgr.timers"; "driver.pktin.batch.count"; "driver.pktin.batch.max";
    "driver.pktin.batch.p50"; "driver.pktin.batch.p99";
    "driver.pktin.drained"; "driver.pktin.dropped"; "driver.pktin.published";
    "driver.resync_deletes"; "driver.resync_installs"; "driver.resyncs";
    "driver.retries"; "driver.sw<n>.commit.pending"; "driver.sw<n>.status";
    "fs.bytes"; "fs.objects"; "fsnotify.driver.sw<n>.coalesced";
    "fsnotify.driver.sw<n>.overflows"; "fsnotify.driver.sw<n>.pending";
    "fsnotify.events_coalesced"; "fsnotify.events_dispatched";
    "fsnotify.overflows"; "fsnotify.watches_visited"; "net.frames_delivered";
    "net.frames_dropped"; "netsim.pool.pktin.allocated";
    "netsim.pool.pktin.free"; "netsim.pool.pktin.in_use";
    "netsim.pool.pktin.reused"; "policy.compile.latency.count";
    "policy.compile.latency.max"; "policy.compile.latency.p50";
    "policy.compile.latency.p99"; "policy.compile_errors"; "policy.files";
    "policy.flows_deleted"; "policy.flows_written"; "policy.fs_errors";
    "policy.recompiles"; "policy.rules"; "rounds.app.ecmpd.count";
    "rounds.app.ecmpd.max"; "rounds.app.ecmpd.p50"; "rounds.app.ecmpd.p99";
    "rounds.driver.flow_mod.count"; "rounds.driver.flow_mod.max";
    "rounds.driver.flow_mod.p50"; "rounds.driver.flow_mod.p99";
    "rounds.driver.packet_in.count"; "rounds.driver.packet_in.max";
    "rounds.driver.packet_in.p50"; "rounds.driver.packet_in.p99";
    "rounds.sched.wake.count"; "rounds.sched.wake.max";
    "rounds.sched.wake.p50"; "rounds.sched.wake.p99";
    "rounds.switch.install.count"; "rounds.switch.install.max";
    "rounds.switch.install.p50"; "rounds.switch.install.p99";
    "rounds.yancfs.flow_write.count"; "rounds.yancfs.flow_write.max";
    "rounds.yancfs.flow_write.p50"; "rounds.yancfs.flow_write.p99";
    "sched.ecmpd.iterations"; "sched.ecmpd.runtime_ns";
    "sched.policyd.iterations"; "sched.policyd.runtime_ns";
    "trace.app.ecmpd.count"; "trace.app.ecmpd.max"; "trace.app.ecmpd.p50";
    "trace.app.ecmpd.p99"; "trace.driver.flow_mod.count";
    "trace.driver.flow_mod.max"; "trace.driver.flow_mod.p50";
    "trace.driver.flow_mod.p99"; "trace.driver.packet_in.count";
    "trace.driver.packet_in.max"; "trace.driver.packet_in.p50";
    "trace.driver.packet_in.p99"; "trace.dropped"; "trace.sched.wake.count";
    "trace.sched.wake.max"; "trace.sched.wake.p50"; "trace.sched.wake.p99";
    "trace.spans_recorded"; "trace.switch.install.count";
    "trace.switch.install.max"; "trace.switch.install.p50";
    "trace.switch.install.p99"; "trace.yancfs.flow_write.count";
    "trace.yancfs.flow_write.max"; "trace.yancfs.flow_write.p50";
    "trace.yancfs.flow_write.p99"; "vfs.components"; "vfs.crossings";
    "vfs.hooks" ]

let cluster_golden =
  [ "blackbox.recorded"; "cluster.fs_errors"; "cluster.live_nodes";
    "cluster.members_seen";
    "cluster.nodes"; "cluster.takeovers"; "cluster.unowned_shards";
    "datapath.entries_examined"; "datapath.invalidations"; "datapath.lookups";
    "datapath.microflow_hits"; "datapath.microflow_misses";
    "datapath.subtables_visited"; "dfs.max_queue";
    "dfs.nodes"; "dfs.ops_coalesced"; "dfs.ops_dropped"; "dfs.ops_originated";
    "dfs.ops_replicated"; "dfs.ops_synced"; "dfs.pending"; "dfs.replay_failed";
    "dfs.writer_blocked_s"; "driver.attached_switches"; "driver.commit.adds";
    "driver.commit.batches"; "driver.commit.coalesced";
    "driver.commit.deletes"; "driver.commit.keys";
    "driver.commit.latency.count"; "driver.commit.latency.max";
    "driver.commit.latency.p50"; "driver.commit.latency.p99";
    "driver.commit.sweeps"; "driver.dead_switches"; "driver.disconnects";
    "driver.fs_errors"; "driver.keepalives_sent"; "driver.mgr.attached";
    "driver.mgr.runnable"; "driver.mgr.stepped"; "driver.mgr.steps";
    "driver.mgr.timers"; "driver.pktin.batch.count"; "driver.pktin.batch.max";
    "driver.pktin.batch.p50"; "driver.pktin.batch.p99";
    "driver.pktin.drained"; "driver.pktin.dropped"; "driver.pktin.published";
    "driver.resync_deletes"; "driver.resync_installs"; "driver.resyncs";
    "driver.retries"; "driver.sw<n>.commit.pending"; "driver.sw<n>.status";
    "fs.bytes"; "fs.objects"; "fsnotify.driver.sw<n>.coalesced";
    "fsnotify.driver.sw<n>.overflows"; "fsnotify.driver.sw<n>.pending";
    "fsnotify.events_coalesced"; "fsnotify.events_dispatched";
    "fsnotify.overflows"; "fsnotify.watches_visited"; "net.frames_delivered";
    "net.frames_dropped"; "netsim.pool.pktin.allocated";
    "netsim.pool.pktin.free"; "netsim.pool.pktin.in_use";
    "netsim.pool.pktin.reused"; "trace.dropped"; "trace.spans_recorded";
    "vfs.components"; "vfs.crossings"; "vfs.hooks" ]

(* Every registry series bench/suite/workloads.ml reads (its two dead
   [vfs.dcache.*] reads aside). *)
let suite_reads =
  [ "app.ecmpd.installs"; "app.ecmpd.no_route"; "app.ecmpd.unknown_dst";
    "datapath.entries_examined"; "datapath.lookups"; "datapath.microflow_hits";
    "datapath.microflow_misses"; "dfs.ops_coalesced"; "dfs.ops_replicated";
    "driver.commit.adds"; "driver.commit.batches"; "driver.commit.deletes";
    "driver.commit.keys"; "driver.fs_errors"; "driver.mgr.stepped";
    "driver.pktin.dropped"; "driver.pktin.published";
    "fsnotify.events_coalesced"; "fsnotify.events_dispatched";
    "fsnotify.watches_visited"; "policy.compile_errors";
    "rounds.switch.install.max"; "vfs.components"; "vfs.crossings" ]

let test_series_goldens () =
  let storm = fold_switches (storm_series ()) in
  let cluster = fold_switches (cluster_series ()) in
  Alcotest.(check (list string)) "storm /yanc/.proc/metrics" storm_golden storm;
  Alcotest.(check (list string))
    "/yanc/cluster/.proc/metrics" cluster_golden cluster;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "golden carries %s" name)
        true
        (List.mem name storm_golden || List.mem name cluster_golden))
    suite_reads

(* --- percentile quantization contract -------------------------------------- *)

let test_percentile_upper_bound () =
  let reg = T.Registry.create () in
  let h = T.Registry.histogram reg "q" in
  (* One observation at 5 ns sits in bucket [4, 8): the reported p50 is
     the bucket's upper bound clamped to the true max — never below the
     true value, and strictly less than 2x above it. *)
  T.Registry.observe h 5e-9;
  Alcotest.(check (float 1e-15)) "single value clamps to max" 5e-9
    (T.Registry.percentile h 0.5);
  T.Registry.observe h 100e-9;
  let p50 = T.Registry.percentile h 0.5 in
  Alcotest.(check (float 1e-15)) "p50 is bucket [4,8) upper bound" 8e-9 p50;
  Alcotest.(check bool) "never below the true percentile" true (p50 >= 5e-9);
  Alcotest.(check bool) "overstates by < 2x" true (p50 < 2. *. 5e-9);
  (* Property over a spread of values: for every q, upper-bound
     semantics bound the true rank-q observation from above within 2x. *)
  let vals = [ 3e-9; 17e-9; 90e-9; 1.1e-6; 2.9e-6; 0.5e-3 ] in
  let h2 = T.Registry.histogram reg "q2" in
  List.iter (T.Registry.observe h2) vals;
  let sorted = List.sort compare vals in
  List.iter
    (fun q ->
      let p = T.Registry.percentile h2 q in
      let rank =
        let r =
          int_of_float (ceil (q *. float_of_int (List.length sorted)))
        in
        max 1 (min (List.length sorted) r)
      in
      let true_v = List.nth sorted (rank - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f bounded below by the true value" q)
        true (p >= true_v);
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within 2x of the true value" q)
        true
        (p < 2. *. true_v))
    [ 0.5; 0.9; 0.99; 1.0 ]

(* --- cluster rollup merge ---------------------------------------------------- *)

(* Hand-merge two registries' histograms through the raw bucket
   accessor and recompute the percentile with an independent
   implementation of the upper-bound rule; merged_snapshot must agree
   exactly — the rollup's p99 is the percentile of the union, not an
   average of per-node percentiles. *)
let test_merged_snapshot_hand_merge () =
  let a = T.Registry.create () and b = T.Registry.create () in
  T.Registry.add (T.Registry.counter a "hits") 3;
  T.Registry.add (T.Registry.counter b "hits") 39;
  T.Registry.gauge a "busy" (fun () -> 1.5);
  T.Registry.gauge b "busy" (fun () -> 2.5);
  let ha = T.Registry.histogram a "lat" in
  let hb = T.Registry.histogram b "lat" in
  (* node a is fast, node b is slow: the union's p99 must land in b's
     range even though a has most of the mass *)
  for _ = 1 to 90 do T.Registry.observe ha 1e-6 done;
  for _ = 1 to 10 do T.Registry.observe hb 1e-3 done;
  let merged = T.Registry.merged_snapshot [ a; b ] in
  let get name =
    match T.Registry.find merged name with
    | Some v -> v
    | None -> Alcotest.failf "missing merged series %s" name
  in
  Alcotest.(check (float 0.)) "counters summed" 42. (get "hits");
  Alcotest.(check (float 1e-9)) "gauges summed" 4. (get "busy");
  Alcotest.(check (float 0.)) "histogram counts summed" 100.
    (get "lat.count");
  (* independent hand-merge: bucket-wise sums, then the upper-bound walk *)
  let buckets = Array.init 63 (fun i ->
      T.Registry.hist_bucket ha i + T.Registry.hist_bucket hb i)
  in
  let count = Array.fold_left ( + ) 0 buckets in
  let max_v = max (T.Registry.hist_max ha) (T.Registry.hist_max hb) in
  let hand_percentile q =
    let rank = max 1 (min count (int_of_float (ceil (q *. float_of_int count)))) in
    let i = ref 0 and cum = ref buckets.(0) in
    while !cum < rank && !i < 62 do
      incr i;
      cum := !cum + buckets.(!i)
    done;
    min (float_of_int (1 lsl (min 62 (!i + 1))) *. 1e-9) max_v
  in
  Alcotest.(check (float 1e-15)) "merged p50 = union percentile"
    (hand_percentile 0.5) (get "lat.p50");
  Alcotest.(check (float 1e-15)) "merged p99 = union percentile"
    (hand_percentile 0.99) (get "lat.p99");
  Alcotest.(check (float 1e-15)) "merged max = max of maxes" max_v
    (get "lat.max");
  (* of_entries lets a rollup append cluster-global series *)
  let with_globals =
    T.Registry.of_entries (("cluster.live_nodes", 2.) :: T.Registry.entries merged)
  in
  Alcotest.(check (option (float 0.))) "appended global present" (Some 2.)
    (T.Registry.find with_globals "cluster.live_nodes")

(* --- cross-node adoption ----------------------------------------------------- *)

let test_adopt_and_id_base () =
  let ra = T.Registry.create () and rb = T.Registry.create () in
  let ta = T.Tracer.create ra and tb = T.Tracer.create rb in
  T.Tracer.set_enabled ta true;
  T.Tracer.set_enabled tb true;
  T.Tracer.set_id_base tb (1 lsl 40);
  T.Tracer.set_now ta 1.0;
  let id = T.Tracer.fresh ta in
  Alcotest.(check bool) "origin ids stay in the low slice" true
    (id < 1 lsl 40);
  let ctx =
    match T.Tracer.context ta with
    | Some c -> c
    | None -> Alcotest.fail "no ambient context after fresh"
  in
  let trace, origin, origin_round = ctx in
  Alcotest.(check int) "context carries the trace id" id trace;
  (* the context rides a replicated op to node b, which adopts it *)
  T.Tracer.set_now tb 1.5;
  T.Tracer.adopt tb ~trace ~origin ~origin_round;
  T.Tracer.span tb ~stage:"dfs.apply" (fun () -> ());
  T.Tracer.clear tb;
  (match T.Tracer.drain tb with
  | [ r ] ->
    Alcotest.(check int) "foreign span keeps the origin trace id" id
      r.T.Tracer.trace;
    Alcotest.(check bool) "span ids come from b's slice" true
      (r.T.Tracer.span_id >= 1 lsl 40);
    Alcotest.(check (float 1e-9)) "origin time rode along" origin
      r.T.Tracer.origin
  | l -> Alcotest.failf "expected 1 record on node b, got %d" (List.length l));
  Alcotest.(check (option unit)) "adopt leaves no context once cleared" None
    (Option.map ignore (T.Tracer.context tb));
  (* a disabled tracer refuses adoption *)
  T.Tracer.set_enabled tb false;
  T.Tracer.adopt tb ~trace ~origin ~origin_round;
  Alcotest.(check (option unit)) "disabled tracer adopts nothing" None
    (Option.map ignore (T.Tracer.context tb))

(* --- flight recorder ---------------------------------------------------------- *)

let test_blackbox_bounded_and_nonconsuming () =
  let bb = T.Blackbox.create ~capacity:4 () in
  for i = 1 to 10 do
    T.Blackbox.mark bb ~at:(float_of_int i) ~what:(Printf.sprintf "m%d" i)
  done;
  Alcotest.(check int) "recorded counts all events" 10
    (T.Blackbox.recorded bb);
  Alcotest.(check int) "overwritten = recorded - capacity" 6
    (T.Blackbox.overwritten bb);
  let evs = T.Blackbox.events bb in
  Alcotest.(check int) "window holds capacity events" 4 (List.length evs);
  (* non-consuming: a second read sees the same window (unlike trace_pipe) *)
  Alcotest.(check int) "reads do not consume" 4
    (List.length (T.Blackbox.events bb));
  let r = T.Blackbox.render bb in
  Alcotest.(check bool) "render carries the accounting header" true
    (String.length r > 0
    && String.sub r 0 (String.length "recorded 10 overwritten 6")
       = "recorded 10 overwritten 6");
  (match evs with
  | T.Blackbox.Mark { what; _ } :: _ ->
    Alcotest.(check string) "window starts at the oldest survivor" "m7" what
  | _ -> Alcotest.fail "expected mark events");
  let d = T.Blackbox.dump bb ~reason:"test" ~now:11. in
  Alcotest.(check int) "dump counted" 1 (T.Blackbox.dumps bb);
  Alcotest.(check bool) "dump names its reason" true
    (String.sub d 0 (String.length "# blackbox dump reason=test")
     = "# blackbox dump reason=test")

(* --- health probes ------------------------------------------------------------ *)

let test_health_probes () =
  let snap l = T.Registry.of_entries l in
  (* empty snapshot: every probe is not-applicable, worst is Ok *)
  let verdicts = T.Health.evaluate (snap []) in
  Alcotest.(check int) "all defaults evaluated"
    (List.length T.Health.defaults)
    (List.length verdicts);
  Alcotest.(check int) "missing series pass" 0
    (T.Health.exit_code (T.Health.worst verdicts));
  (* a warn-level breach informs but does not fail *)
  let warn = T.Health.evaluate (snap [ ("trace.dropped", 5.) ]) in
  Alcotest.(check bool) "ring overruns warn" true
    (T.Health.worst warn = T.Health.Warn);
  Alcotest.(check int) "warn exits 0" 0
    (T.Health.exit_code (T.Health.worst warn));
  (* a crit breach flips the exit code *)
  let crit =
    T.Health.evaluate
      (snap [ ("cluster.unowned_shards", 3.); ("trace.dropped", 5.) ])
  in
  Alcotest.(check bool) "unowned shards are crit" true
    (T.Health.worst crit = T.Health.Crit);
  Alcotest.(check int) "crit exits 1" 1
    (T.Health.exit_code (T.Health.worst crit));
  (* the rendered report round-trips its status line *)
  Alcotest.(check bool) "render/parse round-trip (crit)" true
    (T.Health.status_of_render (T.Health.render crit) = Some T.Health.Crit);
  Alcotest.(check bool) "render/parse round-trip (ok)" true
    (T.Health.status_of_render (T.Health.render verdicts) = Some T.Health.Ok);
  (* values at the limit do not breach: the contract is value > limit *)
  let at_limit = T.Health.evaluate (snap [ ("driver.dead_switches", 0.) ]) in
  Alcotest.(check bool) "value = limit passes" true
    (T.Health.worst at_limit = T.Health.Ok)

let () =
  Alcotest.run "telemetry"
    [ ( "registry",
        [ Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "snapshot isolation" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "render format" `Quick test_render_format;
          Alcotest.test_case "percentile upper-bound semantics" `Quick
            test_percentile_upper_bound;
          Alcotest.test_case "merged snapshot matches a hand-merge" `Quick
            test_merged_snapshot_hand_merge ] );
      ( "tracer",
        [ Alcotest.test_case "ring overflow drops oldest" `Quick
            test_ring_overflow_drops_oldest;
          Alcotest.test_case "drain consumes once" `Quick
            test_drain_consumes_once;
          Alcotest.test_case "stamp and resume" `Quick test_stamp_resume;
          Alcotest.test_case "disabled tracer is a no-op" `Quick
            test_disabled_tracer_is_noop;
          Alcotest.test_case "adopt carries a foreign trace" `Quick
            test_adopt_and_id_base ] );
      ( "blackbox",
        [ Alcotest.test_case "bounded and non-consuming" `Quick
            test_blackbox_bounded_and_nonconsuming ] );
      ( "health",
        [ Alcotest.test_case "probe evaluation and exit codes" `Quick
            test_health_probes ] );
      ( "proc",
        [ Alcotest.test_case "packet-in traced end to end" `Quick
            test_packet_in_traced_end_to_end;
          Alcotest.test_case "storm op-stream golden" `Quick
            test_storm_op_stream_golden;
          Alcotest.test_case "metrics unifies the counters" `Quick
            test_proc_metrics_unifies_the_counters;
          Alcotest.test_case "dfs counters join the registry" `Quick
            test_dfs_counters_join_the_registry;
          Alcotest.test_case "scheduler accounting" `Quick
            test_scheduler_accounting;
          Alcotest.test_case "controller shares its fs registry" `Quick
            test_controller_over_fs_shares_its_registry;
          Alcotest.test_case "bare yancfs reports vfs series" `Quick
            test_bare_yancfs_reports_vfs_series;
          Alcotest.test_case "series-name goldens" `Quick
            test_series_goldens;
          Alcotest.test_case "subscriber op-stream golden" `Quick
            test_subscriber_op_stream_golden ] );
    ]
