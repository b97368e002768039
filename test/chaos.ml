(* Deterministic chaos harness (tentpole of the fault-injection PR).

   [run ~seed profile] boots a controller over a linear topology, lets
   it handshake cleanly, then installs the profile's fault policy on
   both ends of every control channel — each endpoint's PRNG stream is
   derived from [seed], so the whole run is a pure function of
   (seed, profile). A flow create/delete workload races the faults;
   afterwards the faults are cleared, every channel is bounced once
   (the clean-room reconnect), and the run must converge:

   - every driver back to [Connected], with at least one resync;
   - per switch, hardware flow table ≡ committed file-system flows,
     judged by {!Yanc.Audit} (full committed tuples, lookup-side
     expiry applied);
   - when a [policy] pair is given, the policy engine runs too: the
     first text is installed before the turbulence, the second is
     written mid-workload so the recompile + diffed install races the
     faults, and afterwards the same audit checks every switch's
     [pol_*] flows against the engine's compiled desired rules, giving
     hardware ≡ file system ≡ compiled policy;
   - applications still making progress (no wedged scheduler entry);
   - no unbounded chunk build-up in either channel direction.

   Failures print the seed and profile, which reproduce the run
   exactly (see DESIGN.md "Reproducing chaos failures"). *)

module N = Netsim
module D = Driver
module Y = Yancfs
module OF = Openflow
module CC = N.Control_channel

let cred = Vfs.Cred.root

type profile = {
  pname : string;
  policy : CC.Faults.policy;
  (* scripted hard disconnects, relative to the start of the chaos
     phase (controller-side endpoint only) *)
  disconnect_at : float list;
}

let drop_profile =
  { pname = "drop";
    policy = { CC.Faults.default with CC.Faults.drop = 0.25; truncate = 0.05 };
    disconnect_at = [] }

let reorder_profile =
  { pname = "reorder";
    policy =
      { CC.Faults.default with
        CC.Faults.reorder = 0.3; duplicate = 0.15; delay = 0.2; delay_s = 0.08 };
    disconnect_at = [] }

let disconnect_profile =
  { pname = "disconnect";
    policy = { CC.Faults.default with CC.Faults.reconnect_after = 0.15 };
    disconnect_at = [ 0.5; 1.3 ] }

let profiles = [ drop_profile; reorder_profile; disconnect_profile ]

(* Aggressive timers so a whole chaos run stays under a few simulated
   seconds; max_retries is deliberately generous — going [Dead] during
   turbulence is not the behaviour under test here. *)
let fast_tuning =
  { D.Driver_intf.default_tuning with
    D.Driver_intf.keepalive_interval = 0.1;
    liveness_timeout = 0.35;
    backoff_base = 0.05;
    backoff_cap = 0.4;
    max_retries = 200 }

type outcome = {
  disconnects : int;
  retries : int;
  resyncs : int;
  resync_installs : int;
  resync_deletes : int;
  keepalives : int;
  faults_injected : int;
}

let flow_name i = Printf.sprintf "chaos_%02d" i

let app_iterations ctl name =
  match List.assoc_opt name (Yanc.Scheduler.stats (Yanc.Controller.scheduler ctl))
  with
  | Some (s : Yanc.Scheduler.app_stats) -> s.iterations
  | None -> 0

let run ?(switches = 3) ?(flows = 9) ?policy ~seed profile =
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Alcotest.failf "chaos seed=%d profile=%s: %s" seed profile.pname s)
      fmt
  in
  let built = N.Topo_gen.linear ~hosts_per_switch:1 switches in
  let net = built.N.Topo_gen.net in
  let ctl = Yanc.Controller.create ~tuning:fast_tuning ~seed ~net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  let topo = Apps.Topology.create ~probe_interval:0.5 yfs in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  let mgr = Yanc.Controller.manager ctl in
  let dpids = D.Manager.attached mgr in
  let write_policy text =
    match
      Vfs.Fs.write_file (Yanc.Controller.fs ctl) ~cred
        (Y.Layout.policy_file "chaos") text
    with
    | Ok () -> ()
    | Error e -> fail "write policy file: %s" (Vfs.Errno.to_string e)
  in
  let engine =
    match policy with
    | None -> None
    | Some (initial, _) ->
      let eng = Yanc.Controller.add_policy_engine ctl in
      write_policy initial;
      Some eng
  in
  (* clean boot: everything handshakes before the turbulence starts *)
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  List.iter
    (fun (dpid, st) ->
      if st <> D.Driver_intf.Connected then
        fail "dpid %Ld not connected after fault-free boot (%s)" dpid
          (D.Driver_intf.status_to_string st))
    (D.Manager.statuses mgr);
  let chaos_start = Yanc.Controller.now ctl in
  let endpoints =
    List.map
      (fun dpid ->
        match D.Manager.channel mgr ~dpid with
        | Some pair -> (dpid, pair)
        | None -> fail "dpid %Ld has no channel" dpid)
      dpids
  in
  (* Install the fault policies: each endpoint gets its own PRNG stream
     derived from the run seed, so both directions misbehave but a rerun
     misbehaves identically. *)
  List.iteri
    (fun i (_, (sw_end, ctl_end)) ->
      let script =
        List.map
          (fun at ->
            { CC.Faults.at = chaos_start +. at; action = CC.Faults.Disconnect })
          profile.disconnect_at
      in
      CC.set_faults ctl_end
        (Some
           (CC.Faults.create ~policy:profile.policy ~script
              ~seed:(seed + (2 * i)) ()));
      CC.set_faults sw_end
        (Some
           (CC.Faults.create ~policy:profile.policy ~seed:(seed + (2 * i) + 1) ())))
    endpoints;
  (* The workload races the faults: committed flows must eventually
     reach hardware no matter what the channel did to the flow_mods. *)
  let names =
    List.map
      (fun dpid ->
        match D.Manager.switch_name mgr ~dpid with
        | Some n -> n
        | None -> fail "dpid %Ld has no switch name" dpid)
      dpids
  in
  let nsw = List.length names in
  for i = 0 to flows - 1 do
    Yanc.Controller.run_for ~tick:0.02 ctl 0.2;
    (* mid-workload policy rewrite: the recompile and its diffed
       install run while the channels are still misbehaving (and, for
       the disconnect profile, while scripted severs land) *)
    if i = flows / 2 then
      Option.iter (fun (_, rewrite) -> write_policy rewrite) policy;
    let swname = List.nth names (i mod nsw) in
    let flow =
      { Y.Flowdir.default with
        Y.Flowdir.of_match =
          { OF.Of_match.any with OF.Of_match.tp_dst = Some (2000 + i) };
        actions = [ OF.Action.Output (OF.Action.Physical 1) ];
        priority = 100 + i }
    in
    (match Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:(flow_name i) flow
     with
    | Ok () -> ()
    | Error e -> fail "create_flow %s: %s" (flow_name i) (Vfs.Errno.to_string e));
    (* every third flow is deleted two rounds after it was created, so
       deletions race the faults too *)
    if i >= 2 && i mod 3 = 2 then
      ignore
        (Y.Yanc_fs.delete_flow yfs ~cred ~switch:(List.nth names ((i - 2) mod nsw))
           (flow_name (i - 2)))
  done;
  Yanc.Controller.run_for ~tick:0.02 ctl 0.4;
  let iterations_mid = app_iterations ctl Apps.Topology.app_name in
  let faults_injected =
    List.fold_left
      (fun acc (_, (sw_end, ctl_end)) ->
        let tally e =
          let s = CC.fault_stats e in
          s.CC.dropped + s.CC.duplicated + s.CC.reordered + s.CC.truncated
          + s.CC.delayed
        in
        acc + tally sw_end + tally ctl_end)
      0 endpoints
  in
  (* Turbulence over. Clear the policies and bounce every channel once:
     a lossy-but-never-disconnected profile can have swallowed a
     flow_mod without ever tripping liveness, and only a fresh
     handshake + resync is guaranteed to repair that. *)
  List.iter
    (fun (_, (sw_end, ctl_end)) ->
      CC.set_faults sw_end None;
      CC.set_faults ctl_end None;
      CC.disconnect ctl_end)
    endpoints;
  let converged =
    Yanc.Controller.run_until ~tick:0.02 ~timeout:30. ctl (fun () ->
        List.for_all
          (fun (_, st) -> st = D.Driver_intf.Connected)
          (D.Manager.statuses mgr)
        && List.for_all
             (fun dpid ->
               match D.Manager.link_counters mgr ~dpid with
               | Some (c : D.Driver_intf.link_counters) -> c.resyncs >= 1
               | None -> false)
             dpids)
  in
  if not converged then
    fail "did not reconverge: statuses [%s]"
      (String.concat "; "
         (List.map
            (fun (d, s) ->
              Printf.sprintf "%Ld:%s" d (D.Driver_intf.status_to_string s))
            (D.Manager.statuses mgr)));
  (* one settle beat so the last resync's repairs reach hardware *)
  Yanc.Controller.run_for ~tick:0.02 ctl 0.5;
  (* Invariant 1: per switch, hardware ≡ file system ≡ compiled policy
     (the pol_* leg runs when the policy engine does), by the network
     fsck. *)
  (match engine with
  | Some eng when Apps.Policy_engine.desired eng = [] ->
    fail "policy compiled to no rules"
  | _ -> ());
  let reports = Yanc.Controller.audit ctl in
  if List.length reports <> List.length dpids then
    fail "fsck judged %d of %d switches" (List.length reports)
      (List.length dpids);
  if not (List.for_all Yanc.Audit.ok reports) then
    fail "diverged after convergence:\n%s" (Yanc.Audit.render reports);
  (* Invariant 2: the application kept running through the failures. *)
  let iterations_end = app_iterations ctl Apps.Topology.app_name in
  if iterations_end <= iterations_mid then
    fail "topology app wedged: %d iterations before convergence, %d after"
      iterations_mid iterations_end;
  (* Invariant 3: no event-queue leak — nothing should still be
     accumulating in either channel direction once the system is calm. *)
  List.iter
    (fun (dpid, (sw_end, ctl_end)) ->
      let p = CC.pending sw_end + CC.pending ctl_end in
      if p > 8 then fail "dpid %Ld: %d chunks still queued after convergence"
          dpid p)
    endpoints;
  let sum f =
    List.fold_left
      (fun acc dpid ->
        match D.Manager.link_counters mgr ~dpid with
        | Some c -> acc + f c
        | None -> acc)
      0 dpids
  in
  { disconnects = sum (fun (c : D.Driver_intf.link_counters) -> c.disconnects);
    retries = sum (fun c -> c.D.Driver_intf.retries);
    resyncs = sum (fun c -> c.D.Driver_intf.resyncs);
    resync_installs = sum (fun c -> c.D.Driver_intf.resync_installs);
    resync_deletes = sum (fun c -> c.D.Driver_intf.resync_deletes);
    keepalives = sum (fun c -> c.D.Driver_intf.keepalives_sent);
    faults_injected }
