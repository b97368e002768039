(* E19 — datacenter-scale packet-in storms: fat-tree fleets, a seeded
   heavy-tailed workload, ECMP routing over the pooled ring fast path,
   and that delivery path alone against the event-directory baseline
   (paper §8.1 at fleet scale). Writes BENCH_scale.json. *)

open Harness

type out = {
  k : int;
  switches : int;
  hosts : int;
  arrivals : int;
  pktins : int;
  installs : int;
  sim_s : float;
  wall_s : float;
  p50 : float;            (* packet-in -> install, sim seconds *)
  p99 : float;
  p50_rounds : float;     (* packet-in -> install, control rounds *)
  p99_rounds : float;
  rounds_observed : int;  (* samples behind the rounds percentiles:
                             distinguishes a measured zero (install in
                             its arrival round) from missing data *)
  pool_allocated : int;
  pool_reused : int;
  ring_dropped : int;
  batch_count : int;
  batch_p50 : float;
  batch_max : float;
}

let seed = 0xD47ACE

let tick = 0.005

let storm ~rate ~arrivals ~k () =
  let rig, ctl = Rig.controller ~k () in
  let wl = Rig.workload rig ~rate ~seed in
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  let install_h = Telemetry.Registry.histogram reg "trace.switch.install" in
  let rounds_h = Telemetry.Registry.histogram reg "rounds.switch.install" in
  let batch_h = Telemetry.Registry.histogram reg "driver.pktin.batch" in
  let installs0 = ctl_count ctl "driver.commit.adds" in
  let pktins0 = ctl_count ctl "driver.pktin.published" in
  let sim0 = N.Network.now rig.net in
  let wall0 = Sys.time () in
  let injected = Rig.drive ~tick rig wl ~arrivals in
  let wall_s = Sys.time () -. wall0 in
  let ring = Y.Yanc_fs.pktin (Yanc.Controller.yfs ctl) in
  let pool = Y.Pktin.pool ring in
  { k;
    switches = List.length rig.built.N.Topo_gen.dpids;
    hosts = rig.hosts;
    arrivals = injected;
    pktins = ctl_count ctl "driver.pktin.published" - pktins0;
    installs = ctl_count ctl "driver.commit.adds" - installs0;
    sim_s = N.Network.now rig.net -. sim0;
    wall_s;
    p50 = Telemetry.Registry.percentile install_h 0.5;
    p99 = Telemetry.Registry.percentile install_h 0.99;
    p50_rounds = Telemetry.Registry.percentile rounds_h 0.5;
    p99_rounds = Telemetry.Registry.percentile rounds_h 0.99;
    rounds_observed = Telemetry.Registry.hist_count rounds_h;
    pool_allocated = N.Pool.allocated pool;
    pool_reused = N.Pool.reused pool;
    ring_dropped = Y.Pktin.dropped ring;
    batch_count = Telemetry.Registry.hist_count batch_h;
    batch_p50 = Telemetry.Registry.percentile batch_h 0.5;
    batch_max = Telemetry.Registry.hist_max batch_h }

let rates r =
  let inst = float_of_int r.installs in
  (inst /. (if r.sim_s > 0. then r.sim_s else 1.),
   inst /. (if r.wall_s > 0. then r.wall_s else epsilon_float))

let print_row r =
  let per_sim, per_wall = rates r in
  row "  %4d | %8d | %6d | %8d | %8d | %8d | %7.2f | %11.0f | %12.0f | %8.2f | %8.2f | %7.0f | %7.0f\n"
    r.k r.switches r.hosts r.arrivals r.pktins
    r.installs r.wall_s per_sim per_wall (r.p50 *. 1000.)
    (r.p99 *. 1000.) r.p50_rounds r.p99_rounds

(* The §8.1 delivery-path comparison, isolated: the same packet-in
   stream handed to one application through the pooled ring vs through
   the per-event file directories, on a k=8 fleet's switch set. The
   end-to-end storm above is dominated by path installation (5 flow
   writes per arrival), which either delivery would share; this
   measures only the delivery mechanism the ring replaces. Returns
   (ring events/s, eventdir events/s, ring crossings, ed crossings). *)
let delivery ?(events = 10_000) ?(switches = 80) () =
  let payload = String.make 64 '\x2a' in
  let sw i = Printf.sprintf "sw%d" ((i mod switches) + 1) in
  (* ring side: publish + batched drain *)
  let fs, yfs = fresh_yancfs ~switches () in
  let ring = Y.Yanc_fs.pktin yfs in
  let consumer = Y.Pktin.subscribe ring in
  let c0 = fs_count fs "vfs.crossings" in
  let handled = ref 0 in
  let t0 = Sys.time () in
  for i = 0 to events - 1 do
    ignore
      (Y.Pktin.publish ring ~switch:(sw i) ~in_port:1
         ~reason:OF.Of_types.No_match ~buffer_id:None ~total_len:64
         ~data:payload ~at:0.);
    if i mod 64 = 63 then
      handled := !handled + Y.Pktin.drain ring consumer ~max:64 (fun _ -> ())
  done;
  handled := !handled + Y.Pktin.drain ring consumer ~max:events (fun _ -> ());
  let ring_wall = Sys.time () -. t0 in
  let ring_crossings = fs_count fs "vfs.crossings" - c0 in
  assert (!handled = events);
  (* eventdir side: the same stream through per-event files *)
  let fs2, yfs2 = fresh_yancfs ~switches () in
  for i = 1 to switches do
    ignore
      (Y.Eventdir.subscribe fs2 ~cred ~root:net_root
         ~switch:(Printf.sprintf "sw%d" i) ~app:"bench")
  done;
  let c0 = fs_count fs2 "vfs.crossings" in
  let consumed = ref 0 in
  let consume_all () =
    for s = 1 to switches do
      consumed :=
        !consumed
        + List.length
            (Result.fold ~ok:Fun.id ~error:(fun e -> failwith (Vfs.Errno.to_string e))
               (Y.Eventdir.consume fs2 ~cred ~root:net_root
                  ~switch:(Printf.sprintf "sw%d" s) ~app:"bench"
                  ~on_error:(fun e -> failwith (Vfs.Errno.to_string e))))
    done
  in
  let t1 = Sys.time () in
  for i = 0 to events - 1 do
    ignore
      (Y.Eventdir.publish yfs2 ~cred:Vfs.Cred.root ~switch:(sw i) ~in_port:1
         ~reason:OF.Of_types.No_match ~buffer_id:None ~total_len:64
         ~data:payload);
    if i mod 64 = 63 then consume_all ()
  done;
  consume_all ();
  let ed_wall = Sys.time () -. t1 in
  let ed_crossings = fs_count fs2 "vfs.crossings" - c0 in
  assert (!consumed = events);
  ( float_of_int events /. (if ring_wall > 0. then ring_wall else epsilon_float),
    float_of_int events /. (if ed_wall > 0. then ed_wall else epsilon_float),
    float_of_int ring_crossings /. float_of_int events,
    float_of_int ed_crossings /. float_of_int events )

let json_of_out r =
  let per_sim, per_wall = rates r in
  Json.(
    Obj
      [ "k", Int r.k;
        "switches", Int r.switches; "hosts", Int r.hosts;
        "arrivals", Int r.arrivals; "packet_ins", Int r.pktins;
        "installs", Int r.installs;
        "sim_s", Float (6, r.sim_s); "wall_s", Float (6, r.wall_s);
        "installs_per_sim_s", Float (1, per_sim);
        "installs_per_wall_s", Float (1, per_wall);
        "install_p50_s", Float (6, r.p50); "install_p99_s", Float (6, r.p99);
        "install_p50_rounds", Float (1, r.p50_rounds);
        "install_p99_rounds", Float (1, r.p99_rounds);
        "install_rounds_observed", Int r.rounds_observed;
        "pool_allocated", Int r.pool_allocated;
        "pool_reused", Int r.pool_reused; "ring_dropped", Int r.ring_dropped;
        "batch_count", Int r.batch_count;
        "batch_p50", Float (1, r.batch_p50);
        "batch_max", Float (1, r.batch_max) ])

(* Prints the table and returns the BENCH_scale.json artifact. *)
let run () =
  section
    "E19  datacenter storm: fat-tree fleet, ECMP, pooled ring vs eventdir";
  row "  %4s | %8s | %6s | %8s | %8s | %8s | %7s | %11s | %12s | %8s | %8s | %7s | %7s\n"
    "k" "switches" "hosts" "arrivals" "pktins" "installs" "wall s"
    "inst/sim s" "inst/wall s" "p50 ms" "p99 ms" "p50 rnd" "p99 rnd";
  (* arrivals and rate scale with k so every fleet faces a storm
     proportional to its size (375*k arrivals at 500*k flows/s). *)
  let series =
    List.map
      (fun k ->
        let r = storm ~rate:(500. *. float_of_int k) ~arrivals:(375 * k) ~k () in
        print_row r;
        r)
      [ 4; 8; 16 ]
  in
  let at k = List.find (fun r -> r.k = k) series in
  let _, lo_rate = rates (at 4) and _, hi_rate = rates (at 16) in
  row "  degradation: %dx the switches costs %.1fx the wall throughput\n"
    ((at 16).switches / (at 4).switches)
    (lo_rate /. hi_rate);
  let ring_eps, ed_eps, ring_x, ed_x = delivery () in
  row "  delivery path alone @80 switches: ring %.0f events/s (%.2f \
       crossings/event), eventdir %.0f events/s (%.2f crossings/event) — \
       %.1fx\n"
    ring_eps ring_x ed_eps ed_x (ring_eps /. ed_eps);
  Json.(
    Obj
      [ "bench", String "e19_scale_storm";
        "generated_by", String "dune exec bench/main.exe -- artifacts";
        "seed", Int seed; "tick_s", Float (3, tick);
        "series", List (List.map json_of_out series);
        "delivery_k8",
        Obj
          [ "ring_events_per_s", Float (0, ring_eps);
            "eventdir_events_per_s", Float (0, ed_eps);
            "speedup", Float (1, ring_eps /. ed_eps);
            "ring_crossings_per_event", Float (2, ring_x);
            "eventdir_crossings_per_event", Float (2, ed_x) ] ])
