(* The control loop: E16 span tracing, E17 control-channel survival
   and E18 the dirty-flow commit queue. *)

open Harness

(* ================================================================== *)
(* E16 — the telemetry layer: per-stage packet-in latency from the span
   tracer, and what the tracing instrumentation itself costs. *)
(* ================================================================== *)

(* A reactive workload that exercises the whole traced pipeline:
   discovery, then a ping sweep from h1 so the router keeps installing
   fresh paths (each one: packet-in -> wake -> app -> flow write ->
   flow-mod -> install). Returns the controller and the host wall time. *)
let e16_workload ?tracing ?tuning ~pings () =
  let built = N.Topo_gen.linear 4 in
  let ctl = reactive_controller ?tracing ?tuning built.N.Topo_gen.net in
  let t0 = Sys.time () in
  Yanc.Controller.run_for ctl 3.0;
  let net = built.N.Topo_gen.net in
  let h1 = Option.get (N.Network.host net "h1") in
  for seq = 1 to pings do
    (* alternate destinations so paths keep being (re)installed *)
    let dst = 2 + (seq mod 3) in
    N.Network.send_from_host net "h1"
      (N.Sim_host.ping h1 ~now:(N.Network.now net)
         ~dst:(N.Topo_gen.host_ip dst) ~seq);
    ignore
      (Yanc.Controller.run_until ~tick:0.002 ctl (fun () ->
           List.length (N.Sim_host.ping_results h1) >= seq))
  done;
  ctl, Sys.time () -. t0

let e16_tracing () =
  section
    "E16a span tracer: per-stage end-to-end latency of a packet-in (sim \
     clock)";
  let ctl, _ = e16_workload ~pings:12 () in
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  row "  %-20s | %8s | %10s | %10s | %10s\n" "stage" "spans" "p50 ms"
    "p99 ms" "max ms";
  List.iter
    (fun (name, h) ->
      if String.length name > 6 && String.sub name 0 6 = "trace." then
        row "  %-20s | %8d | %10.4f | %10.4f | %10.4f\n"
          (String.sub name 6 (String.length name - 6))
          (Telemetry.Registry.hist_count h)
          (Telemetry.Registry.percentile h 0.5 *. 1e3)
          (Telemetry.Registry.percentile h 0.99 *. 1e3)
          (Telemetry.Registry.hist_max h *. 1e3))
    (Telemetry.Registry.histograms reg);
  row
    "  (0.0000 = the stage finished in the same controller step that \
     admitted the packet-in:\n\
    \   the control loop runs below the scheduler quantum, so the sim clock \
     never advances mid-trace)\n";
  section "E16b tracing overhead: the same reactive sweep, tracer on vs off";
  let off, on =
    min_pair 3
      (fun () -> snd (e16_workload ~tracing:false ~pings:12 ()))
      (fun () -> snd (e16_workload ~pings:12 ()))
  in
  row "  tracer off %.4fs, on %.4fs (%+.1f%%)\n" off on
    ((on -. off) /. off *. 100.)

(* ================================================================== *)
(* E17 — control-channel survival: flow-install recovery latency and
   resync cost after every control channel is severed at once, plus the
   steady-state cost of the keepalive machinery when nothing is wrong. *)
(* ================================================================== *)

let no_keepalive =
  { Driver.Driver_intf.default_tuning with
    Driver.Driver_intf.keepalive_interval = 0. }

let e17_tuning =
  { Driver.Driver_intf.default_tuning with
    Driver.Driver_intf.keepalive_interval = 0.25;
    liveness_timeout = 0.75;
    backoff_base = 0.05;
    backoff_cap = 0.5 }

(* A booted controller with [rules] committed flows per switch, all
   installed and in sync. *)
let e17_rig ~switches ~rules () =
  let built = N.Topo_gen.linear switches in
  let ctl =
    Yanc.Controller.create ~tuning:e17_tuning ~seed:0xE17
      ~net:built.N.Topo_gen.net ()
  in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  let mgr = Yanc.Controller.manager ctl in
  Yanc.Controller.run_for ~tick:0.05 ctl 0.5;
  List.iteri
    (fun i dpid ->
      let name = Option.get (Driver.Manager.switch_name mgr ~dpid) in
      for j = 0 to rules - 1 do
        ignore
          (Y.Yanc_fs.create_flow yfs ~cred ~switch:name
             ~name:(Printf.sprintf "r%d" j)
             { Y.Flowdir.default with
               Y.Flowdir.of_match =
                 { OF.Of_match.any with
                   OF.Of_match.tp_dst = Some (1024 + (rules * i) + j) };
               actions = [ OF.Action.Output (OF.Action.Physical 1) ];
               priority = 100 + j })
      done)
    (Driver.Manager.attached mgr);
  Yanc.Controller.run_for ~tick:0.05 ctl 0.5;
  ctl, mgr

(* The sum of [f dpid] over every attached switch. *)
let e17_sum mgr f =
  List.fold_left (fun acc dpid -> acc + f dpid) 0 (Driver.Manager.attached mgr)

let e17_total_bytes mgr =
  e17_sum mgr (fun dpid ->
      match Driver.Manager.channel mgr ~dpid with
      | Some (sw_end, ctl_end) ->
        N.Control_channel.bytes_sent sw_end + N.Control_channel.bytes_sent ctl_end
      | None -> 0)

let e17_sum_counters mgr f =
  e17_sum mgr (fun dpid ->
      match Driver.Manager.link_counters mgr ~dpid with
      | Some c -> f c
      | None -> 0)

(* Flows a resync installed or deleted, over every switch. *)
let e17_repairs mgr =
  e17_sum_counters mgr (fun c ->
      c.Driver.Driver_intf.resync_installs + c.Driver.Driver_intf.resync_deletes)

(* Sever every control channel, then change the committed state while
   the switches are unreachable (one rule deleted, one added per
   switch). Recovery = every driver reconnected + resynced AND the rule
   committed during the outage actually installed — i.e. the
   fs-write -> flow-install pipeline works again end to end. Returns
   (completed, sim recovery latency, wall seconds, control bytes). *)
let e17_recover ctl mgr =
  let yfs = Yanc.Controller.yfs ctl in
  let dpids = Driver.Manager.attached mgr in
  List.iter
    (fun dpid ->
      let _sw_end, ctl_end = Option.get (Driver.Manager.channel mgr ~dpid) in
      N.Control_channel.disconnect ctl_end)
    dpids;
  List.iteri
    (fun i dpid ->
      let name = Option.get (Driver.Manager.switch_name mgr ~dpid) in
      ignore (Y.Yanc_fs.delete_flow yfs ~cred ~switch:name "r0");
      ignore
        (Y.Yanc_fs.create_flow yfs ~cred ~switch:name ~name:"outage"
           { Y.Flowdir.default with
             Y.Flowdir.of_match =
               { OF.Of_match.any with OF.Of_match.tp_dst = Some (30000 + i) };
             actions = [ OF.Action.Output (OF.Action.Physical 1) ];
             priority = 999 }))
    dpids;
  let bytes0 = e17_total_bytes mgr in
  let t0 = Yanc.Controller.now ctl in
  let w0 = Sys.time () in
  let installed dpid =
    let sw = Option.get (N.Network.switch (Yanc.Controller.net ctl) dpid) in
    List.exists
      (fun ((_, e) : int * N.Flow_table.entry) -> e.N.Flow_table.priority = 999)
      (N.Sim_switch.flow_stats sw ~now:(Yanc.Controller.now ctl)
         ~of_match:OF.Of_match.any ())
  in
  let ok =
    Yanc.Controller.run_until ~tick:0.02 ~timeout:60. ctl (fun () ->
        List.for_all
          (fun (_, st) -> st = Driver.Driver_intf.Connected)
          (Driver.Manager.statuses mgr)
        && List.for_all
             (fun dpid ->
               (match Driver.Manager.link_counters mgr ~dpid with
               | Some c -> c.Driver.Driver_intf.resyncs >= 1
               | None -> false)
               && installed dpid)
             dpids)
  in
  (ok, Yanc.Controller.now ctl -. t0, Sys.time () -. w0,
   e17_total_bytes mgr - bytes0)

let e17_recovery () =
  section
    "E17a flow-install recovery after severing every control channel \
     (rules changed mid-outage)";
  row "  %8s | %8s | %14s | %8s | %10s | %8s\n" "switches" "rules"
    "recovery sim s" "wall s" "resync ops" "ctl KiB";
  List.iter
    (fun switches ->
      let rules = 4 in
      let ctl, mgr = e17_rig ~switches ~rules () in
      let ok, sim_s, wall, bytes = e17_recover ctl mgr in
      let ops = e17_repairs mgr in
      row "  %8d | %8d | %12.3f%s | %8.3f | %10d | %8.1f\n" switches rules
        sim_s
        (if ok then "  " else " !")
        wall ops
        (float_of_int bytes /. 1024.))
    [ 8; 64 ];
  section
    "E17b keepalive steady-state cost: the E16 reactive sweep, keepalives on \
     (default 1s echo) vs off";
  let off, on =
    min_pair 3
      (fun () -> snd (e16_workload ~tuning:no_keepalive ~pings:12 ()))
      (fun () -> snd (e16_workload ~pings:12 ()))
  in
  row "  keepalives off %.4fs, on %.4fs (%+.1f%%)\n" off on
    ((on -. off) /. off *. 100.)

(* ================================================================== *)
(* E18 — the dirty-flow commit queue: per-commit driver cost vs table
   size. The claim: a flow-dir mutation costs O(dirty) work at the
   driver — read and program only the touched entries — with the
   full-reconcile scan reserved for the handshake's flow-stats reply
   and notify overflow. So latency and kernel crossings per commit must stay flat
   as the committed table grows 1k -> 100k, and a burst of writes to
   one flow must coalesce into a single flow_mod. Supersedes E3's
   honest cost (commit latency grew with table size there). *)
(* ================================================================== *)

(* Distinct rule identities well past the 16-bit tp_dst space. *)
let e18_flow i =
  { Y.Flowdir.default with
    Y.Flowdir.of_match =
      { OF.Of_match.any with
        OF.Of_match.dl_type = Some 0x0800;
        nw_dst =
          Some
            (P.Ipv4_addr.Prefix.make
               (P.Ipv4_addr.of_int32 (Int32.of_int (0x0a000000 lor i)))
               32);
        tp_dst = Some (i land 0xffff) };
    actions = [ OF.Action.Output (OF.Action.Physical 1) ];
    priority = 100 }

let e18_name i = Printf.sprintf "f%d" i

(* A handshaken 1-switch rig grown to [flows] committed-and-installed
   entries. Growth goes through the real pipeline in chunks sized to
   the notifier queue (the Classifier table keeps hardware adds cheap
   at this scale). *)
let e18_rig ~flows () =
  let net, yfs, mgr = driver_rig ~strategy:N.Flow_table.Classifier () in
  let i = ref 0 in
  while !i < flows do
    let stop = min flows (!i + 512) in
    while !i < stop do
      incr i;
      ignore
        (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:(e18_name !i)
           (e18_flow !i))
    done;
    Driver.Manager.run_control mgr ~now:1.
  done;
  Driver.Manager.run_control mgr ~now:1.;
  let installed = hw_entries net 1L in
  if installed <> flows then
    Printf.printf "  (warning: %d/%d entries installed)\n" installed flows;
  yfs, mgr

let e18_counter yfs name =
  count (Telemetry.registry (Y.Yanc_fs.telemetry yfs)) name

(* Rewrite flow [i]'s action to output on [port], keeping its
   identity: one dirty mark for the commit queue. *)
let e18_retarget yfs i ~port =
  match Y.Yanc_fs.open_flow yfs ~cred ~switch:"sw1" (e18_name i) with
  | Error _ -> ()
  | Ok d ->
    ignore
      (Y.Flowdir.update (Y.Yanc_fs.fs yfs) ~cred d (fun f ->
           { f with Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical port) ] }))

(* [rounds] x: touch [dirty] flows, one control-loop turn. Returns
   (crossings per round, wall seconds per round) — crossings are the
   deterministic cost counter, so the O(dirty) shape is visible
   without wall-clock noise. *)
let e18_commit_rounds yfs mgr ~dirty ~rounds =
  let fs = Y.Yanc_fs.fs yfs in
  let c0 = fs_count fs "vfs.crossings" in
  let t0 = Sys.time () in
  for r = 1 to rounds do
    for j = 1 to dirty do
      e18_retarget yfs j ~port:((r mod 4) + 1)
    done;
    Driver.Manager.run_control mgr ~now:1.
  done;
  ( (fs_count fs "vfs.crossings" - c0) / rounds,
    (Sys.time () -. t0) /. float_of_int rounds )

(* [bumps] rewrites of flow 1 inside one tick, then one control-loop
   turn. Returns (marks coalesced, flow_mods sent). *)
let e18_burst yfs mgr ~bumps =
  let coal0 = e18_counter yfs "driver.commit.coalesced" in
  let adds0 = e18_counter yfs "driver.commit.adds" in
  for b = 1 to bumps do
    e18_retarget yfs 1 ~port:((b mod 4) + 1)
  done;
  Driver.Manager.run_control mgr ~now:1.;
  ( e18_counter yfs "driver.commit.coalesced" - coal0,
    e18_counter yfs "driver.commit.adds" - adds0 )

let e18_commit_queue () =
  section
    "E18a incremental commits: per-commit cost vs committed table size \
     (supersedes E3)";
  row "  %8s | %6s | %14s | %16s | %12s | %11s\n" "flows" "dirty"
    "crossings/rnd" "crossings/dirty" "wall/round" "wall/dirty";
  List.iter
    (fun flows ->
      let yfs, mgr = e18_rig ~flows () in
      let dirty = 64 in
      (* Wall time covers the steady-state rounds only, not the
         rig-growth batches (1024-key flushes instead of 64). *)
      let crossings, wall = e18_commit_rounds yfs mgr ~dirty ~rounds:12 in
      row "  %8d | %6d | %14d | %16.1f | %9.2f ms | %8.1f us\n" flows dirty
        crossings
        (float_of_int crossings /. float_of_int dirty)
        (wall *. 1e3)
        (wall /. float_of_int dirty *. 1e6))
    [ 1_000; 10_000; 100_000 ];
  section "E18b write-burst coalescing: N version bumps on one flow, one tick";
  row "  %8s | %8s | %10s | %10s | %9s\n" "bumps" "marked" "coalesced"
    "flow_mods" "ratio";
  let yfs, mgr = e18_rig ~flows:256 () in
  List.iter
    (fun bumps ->
      let coalesced, mods = e18_burst yfs mgr ~bumps in
      row "  %8d | %8d | %10d | %10d | %8.0fx\n" bumps bumps coalesced mods
        (float_of_int bumps /. float_of_int (max 1 mods)))
    [ 8; 64; 512 ]
