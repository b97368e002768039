(* The four workloads. Each builds its rig (timed as set-up), runs a
   closed loop over the controller's public calls, and checks its own
   output. The loop advances the sim clock by [tick] only when the data
   plane is idle, so a control round receives about rate x tick new
   flows however slow the controller is.

   An untraced episode calls [Yanc.Controller.step] itself. A traced
   episode rebuilds that round from the same public calls and times
   each one from outside (see [step]); the runner proves the two run
   the same program by comparing every count metric. *)

module N = Netsim
module Y = Yancfs
module Reg = Telemetry.Registry

let cred = Vfs.Cred.root

type t = Storm_k8 | Storm_k16 | Policy_edit | Cluster_n4

let all = [ Storm_k8; Storm_k16; Policy_edit; Cluster_n4 ]

let name = function
  | Storm_k8 -> "storm_k8"
  | Storm_k16 -> "storm_k16"
  | Policy_edit -> "policy_edit"
  | Cluster_n4 -> "cluster_n4"

let of_name s = List.find_opt (fun w -> name w = s) all

(* One episode holds 35-50 arrival rounds (storms, cluster) or 100
   edits, so its own tail percentile would rest on a handful of rounds.
   The runner therefore gives every episode of a run its own seed and
   pools their latency samples: a 30 s run holds ~100 (storm_k16) to
   ~300 (storm_k8) arrival rounds, so the reported p80 has at least ten
   rounds beyond it (the run prints how many). Toy sizes exercise every
   check in a fraction of a second. *)
type size = Full | Toy

type spec = {
  k : int;  (* fat-tree arity *)
  arrivals : int;  (* flows injected by a storm *)
  nodes : int;  (* cluster members *)
  clauses : int;  (* base policy size *)
  edits : int;  (* one-clause policy edits *)
  episode_s : float;
      (* nominal wall seconds of one untraced episode, measured once on
         a 2-vCPU Xeon VM: a run of S seconds holds S / episode_s
         episodes whatever the speed of the commit under test *)
}

let spec w size =
  let none =
    { k = 4; arrivals = 0; nodes = 1; clauses = 0; edits = 0; episode_s = 1. }
  in
  match (w, size) with
  | Storm_k8, Full -> { none with k = 8; arrivals = 1000; episode_s = 4.5 }
  | Storm_k16, Full -> { none with k = 16; arrivals = 700; episode_s = 9.5 }
  | Policy_edit, Full -> { none with clauses = 100; edits = 100; episode_s = 5.5 }
  | Cluster_n4, Full ->
    { none with k = 8; arrivals = 900; nodes = 4; episode_s = 5.5 }
  | (Storm_k8 | Storm_k16), Toy -> { none with arrivals = 100 }
  | Policy_edit, Toy -> { none with clauses = 10; edits = 5 }
  | Cluster_n4, Toy -> { none with arrivals = 100; nodes = 2 }

let default_seed = function
  | Storm_k8 | Storm_k16 -> 0xD47ACE
  | Policy_edit -> 0x22E22
  | Cluster_n4 -> 0xC1A57E

let rate = 4000.

let tick = 0.005

(* What one episode reports. Times are wall seconds on the probe's
   measured clock (benchmark checks cut out). *)
type result = {
  setup_s : float;
  marks : float array;  (* first and last bound the measured phase *)
  requests : (int * int) list;  (* per path or edit: start and end mark *)
  installs : int;  (* driver.commit.adds, summed over nodes *)
  ops : int;  (* the per-op denominator: installs, or edits *)
  attempted : int;  (* arrivals injected, or edits written *)
  failed : int;
  (* Every workload reports every name, 0 where it skips the layer. *)
  counts : (string * float) list;  (* [count_names]; deterministic per seed *)
  cpu : (string * float) list;  (* [cpu_names], in CPU seconds *)
  failures : string list;  (* correctness checks that did not hold *)
}

(* --- rig pieces ------------------------------------------------------------ *)

(* Periodic stats polls off, as in E19: the loop measures the
   packet-in and commit paths, not the counter refresh. *)
let tuning =
  { Driver.Driver_intf.default_tuning with
    Driver.Driver_intf.stats_interval = 0. }

(* Pre-provision the fabric inventory straight into the FS (peer
   symlinks, /net/hosts with attachment points), so discovery stays out
   of the measurement. *)
let provision yfs (built : N.Topo_gen.built) =
  let sw = Y.Yanc_fs.switch_name_of_dpid in
  let must what = function
    | Ok () -> ()
    | Error e -> failwith (what ^ ": " ^ Vfs.Errno.message e)
  in
  List.iter
    (fun (a, b) ->
      match (a, b) with
      | N.Network.Sw (d1, p1), N.Network.Sw (d2, p2) ->
        must "set_peer"
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d1) ~port:p1
             ~peer:(Some (sw d2, p2)));
        must "set_peer"
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d2) ~port:p2
             ~peer:(Some (sw d1, p1)))
      | N.Network.Sw (d, p), N.Network.Hst h
      | N.Network.Hst h, N.Network.Sw (d, p) ->
        let i = int_of_string (String.sub h 1 (String.length h - 1)) in
        must "upsert_host"
          (Y.Yanc_fs.upsert_host yfs ~cred ~name:h ~mac:(N.Topo_gen.host_mac i)
             ~ip:(Some (N.Topo_gen.host_ip i)) ~attached_to:(sw d, p) ())
      | N.Network.Hst _, N.Network.Hst _ -> ())
    (N.Network.link_endpoints built.N.Topo_gen.net)

let controller_rig ~k =
  let built = N.Topo_gen.fat_tree ~k () in
  let ctl = Yanc.Controller.create ~tuning ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  (* complete every handshake: port dirs must exist before set_peer *)
  Yanc.Controller.run_for ctl 0.6;
  (built, ctl)

let all_connected mgr =
  List.for_all
    (fun (_, s) -> s = Driver.Driver_intf.Connected)
    (Driver.Manager.statuses mgr)

let workload_gen ~seed ~hosts ~start =
  N.Workload.create
    ~profile:{ N.Workload.default_profile with N.Workload.rate }
    ~start ~seed ~hosts ()

(* --- one control round ----------------------------------------------------- *)

(* [Yanc.Controller.step], or in a traced episode the same round rebuilt
   from its public calls with each call timed. The first manager step
   reads channels, decodes OF and publishes packet-ins; the second
   flushes the commit queue the apps just filled. *)
let step probe ctl =
  if not (Probe.traced probe) then Yanc.Controller.step ctl
  else begin
    let now = Yanc.Controller.now ctl in
    let mgr = Yanc.Controller.manager ctl in
    Vfs.Fs.set_time (Yanc.Controller.fs ctl) now;
    let tracer = Telemetry.tracer (Yanc.Controller.telemetry ctl) in
    Telemetry.Tracer.set_now tracer now;
    Telemetry.Tracer.bump_round tracer;
    let t0 = Probe.now () in
    Driver.Manager.step mgr ~now;
    Probe.charge probe Probe.Ingest t0;
    let t0 = Probe.now () in
    ignore (Yanc.Scheduler.tick (Yanc.Controller.scheduler ctl) ~now);
    Probe.charge probe Probe.Tick t0;
    let t0 = Probe.now () in
    Driver.Manager.step mgr ~now;
    Probe.charge probe Probe.Commit t0
  end

let drain_data_plane probe net =
  let t0 = Probe.now () in
  N.Network.run net;
  if N.Network.pending_events net = 0 then N.Network.advance_idle net tick;
  Probe.charge probe Probe.Network t0

let inject probe wl net =
  let t0 = Probe.now () in
  let n = N.Workload.inject_until wl ~net ~upto:(N.Network.now net) in
  Probe.charge probe Probe.Inject t0;
  n

(* --- packet-in -> install latency ------------------------------------------ *)

(* Per-path latency from the program's own causal trace ids: the driver
   opens a fresh trace per packet-in, and the driver committing each
   hop resumes it from the flow directory's key (on another node too,
   after the DFS replays the write). After each round the benchmark
   drains the span rings (off the measured clock) and notes the round
   a trace was ingested in and the last round that sent one of its
   flow_mods; the agent installs a flow_mod within the manager step
   that sent it. A path's sample runs from the start of the data-plane
   drain that raised its table miss (the end of the round before
   ingest) to the end of the round that committed its last hop.

   [driver.flow_mod], not [switch.install], marks the commit: the
   agent resumes its trace by xid, and xids are per driver, so two
   switches' installs can swap traces. *)
module Paths = struct
  type t = {
    ingest : (int, int) Hashtbl.t;
    last_commit : (int, int) Hashtbl.t;
  }

  let create () =
    { ingest = Hashtbl.create 4096; last_commit = Hashtbl.create 4096 }

  (* [mark]: the index of the round end just recorded. *)
  let collect t ~mark tracers =
    List.iter
      (fun tracer ->
        List.iter
          (fun (s : Telemetry.Tracer.record) ->
            if s.trace <> 0 then
              match s.stage with
              | "driver.packet_in" -> Hashtbl.replace t.ingest s.trace mark
              | "driver.flow_mod" -> Hashtbl.replace t.last_commit s.trace mark
              | _ -> ())
          (Telemetry.Tracer.drain tracer))
      tracers

  (* Mark 0 opens the measured phase, so a path ingested at mark [m]
     had its miss raised after round end [m - 1] when [m >= 2]. *)
  let requests t =
    Hashtbl.fold
      (fun trace last acc ->
        match Hashtbl.find_opt t.ingest trace with
        | Some m when m >= 2 -> (m - 1, last) :: acc
        | _ -> acc)
      t.last_commit []
end

(* Stamps on the measured clock wherever a request can start or end:
   the start of the measured phase, every round's end, every policy
   write, and the end of the phase. The episodes of one seed replay the
   same rounds, so mark [i] closes the same work in each of them. *)
module Marks = struct
  type t = { mutable n : int; mutable at : float array }

  let create () = { n = 0; at = Array.make 4096 0. }

  let push t x =
    if t.n = Array.length t.at then
      t.at <- Array.append t.at (Array.make t.n 0.);
    t.at.(t.n) <- x;
    t.n <- t.n + 1;
    t.n - 1

  let to_array t = Array.sub t.at 0 t.n
end

(* --- registry counts ------------------------------------------------------- *)

let snapshot regs = Reg.merged_snapshot regs

let delta s0 s1 name =
  let get s = Option.value ~default:0. (Reg.find s name) in
  get s1 -. get s0

let ratio a b = if b = 0. then 0. else a /. b

type gc_mark = { minor_words : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

(* The count metrics, in the order [layer_counts] gives them: the
   runner reads these names and fails an episode that lacks one. Those
   not under [count.] are per-layer metrics; [count.] sizes the work. *)
let count_names =
  [ "vfs.crossings_per_install"; "vfs.components_per_install";
    "vfs.dcache.hit_ratio"; "vfs.dcache.invalidations_per_install";
    "fsnotify.events_per_install"; "fsnotify.watches_visited_per_event";
    "fsnotify.coalesced_ratio"; "driver.commit.keys_per_add";
    "driver.commit.batches_per_round"; "driver.mgr.stepped_per_round";
    "policy.flow_mods_per_edit"; "netsim.control_channel.bytes_per_install";
    "datapath.entries_examined_per_lookup"; "datapath.microflow_hit_ratio";
    "dfs.ops_replicated_per_install"; "dfs.ops_coalesced_ratio";
    "gc.minor_words_per_install"; "gc.major_collections"; "count.installs";
    "count.packet_ins"; "count.paths"; "count.edits"; "count.rounds" ]

(* The count metrics: registry deltas over the measured phase,
   normalised per install (driver.commit.adds). Deterministic per seed,
   so the runner requires them identical in the untraced and traced
   episodes of one seed. *)
let layer_counts ~s0 ~s1 ~g0 ~g1 ~installs ~rounds ~edits ~paths ~channel_bytes
    =
  let d = delta s0 s1 in
  let per_install x = ratio x (float_of_int installs) in
  let hits = d "vfs.dcache.hits" and misses = d "vfs.dcache.misses" in
  let dispatched = d "fsnotify.events_dispatched" in
  let coalesced = d "fsnotify.events_coalesced" in
  let micro_hits = d "datapath.microflow_hits" in
  let micro_misses = d "datapath.microflow_misses" in
  let replicated = d "dfs.ops_replicated" in
  let dfs_coalesced = d "dfs.ops_coalesced" in
  [ ("vfs.crossings_per_install", per_install (d "vfs.crossings"));
    ("vfs.components_per_install", per_install (d "vfs.components"));
    ("vfs.dcache.hit_ratio", ratio hits (hits +. misses));
    ( "vfs.dcache.invalidations_per_install",
      per_install (d "vfs.dcache.invalidations") );
    ("fsnotify.events_per_install", per_install dispatched);
    ( "fsnotify.watches_visited_per_event",
      ratio (d "fsnotify.watches_visited") dispatched );
    ("fsnotify.coalesced_ratio", ratio coalesced (dispatched +. coalesced));
    ( "driver.commit.keys_per_add",
      ratio (d "driver.commit.keys") (d "driver.commit.adds") );
    ( "driver.commit.batches_per_round",
      ratio (d "driver.commit.batches") (float_of_int rounds) );
    ( "driver.mgr.stepped_per_round",
      ratio (d "driver.mgr.stepped") (float_of_int rounds) );
    ( "policy.flow_mods_per_edit",
      ratio
        (d "driver.commit.adds" +. d "driver.commit.deletes")
        (float_of_int edits) );
    ( "netsim.control_channel.bytes_per_install",
      per_install (float_of_int channel_bytes) );
    ( "datapath.entries_examined_per_lookup",
      ratio (d "datapath.entries_examined") (d "datapath.lookups") );
    ( "datapath.microflow_hit_ratio",
      ratio micro_hits (micro_hits +. micro_misses) );
    ("dfs.ops_replicated_per_install", per_install replicated);
    ("dfs.ops_coalesced_ratio", ratio dfs_coalesced (replicated +. dfs_coalesced));
    ("gc.minor_words_per_install", per_install (g1.minor_words -. g0.minor_words));
    ("gc.major_collections", float_of_int (g1.major - g0.major));
    ("count.installs", float_of_int installs);
    ("count.packet_ins", d "driver.pktin.published");
    ("count.paths", float_of_int paths);
    ("count.edits", float_of_int edits);
    ("count.rounds", float_of_int rounds) ]

let channel_bytes mgr =
  List.fold_left
    (fun acc dpid ->
      match Driver.Manager.channel mgr ~dpid with
      | None -> acc
      | Some (agent, driver) ->
        acc + N.Control_channel.bytes_sent agent
        + N.Control_channel.bytes_sent driver)
    0 (Driver.Manager.attached mgr)

let app_runtime_s ctls app =
  List.fold_left
    (fun acc ctl ->
      match List.assoc_opt app (Yanc.Scheduler.stats (Yanc.Controller.scheduler ctl)) with
      | Some (s : Yanc.Scheduler.app_stats) ->
        acc +. (float_of_int s.runtime_ns *. 1e-9)
      | None -> acc)
    0. ctls

let sched_apps = [ "ecmpd"; "policyd" ]

let sched_cpu_name app = Printf.sprintf "yanc.scheduler.%s.runtime_s" app

let sched_cpu_of ctls = List.map (fun app -> app_runtime_s ctls app) sched_apps

(* The program's CPU-time accessors: per-app scheduler runtime, then the
   busiest cluster node and DFS replay (0 outside the cluster). *)
let cpu_names =
  List.map sched_cpu_name sched_apps
  @ [ "yanc.cluster.max_node_busy_s"; "dfs.replay_busy_s" ]

let cpu ~sched0 ~sched1 ~max_node_busy_s ~replay_busy_s =
  List.combine cpu_names
    (List.map2 ( -. ) sched1 sched0 @ [ max_node_busy_s; replay_busy_s ])

(* --- checks ---------------------------------------------------------------- *)

let check failures cond msg = if not cond then failures := msg :: !failures

(* Hardware (match, priority) set = FS flow set on one switch. *)
let switch_agrees yfs net dpid =
  let swname = Y.Yanc_fs.switch_name_of_dpid dpid in
  let fs_rules =
    List.filter_map
      (fun f ->
        match Y.Yanc_fs.read_flow yfs ~cred ~switch:swname f with
        | Ok (fl : Y.Flowdir.t) -> Some (fl.of_match, fl.priority)
        | Error _ -> None)
      (Y.Yanc_fs.flow_names yfs ~cred swname)
  in
  match N.Network.switch net dpid with
  | None -> false
  | Some sw ->
    let hw =
      List.map
        (fun ((_, e) : int * N.Flow_table.entry) -> (e.of_match, e.priority))
        (N.Sim_switch.flow_stats sw ~now:(N.Network.now net)
           ~of_match:Openflow.Of_match.any ())
    in
    List.sort_uniq compare fs_rules = List.sort_uniq compare hw

(* --- storms ---------------------------------------------------------------- *)

(* Quiet tail after the last arrival: lets in-flight packet-ins route. *)
let tail_s = 0.25

let storm probe ~spec ~seed =
  let t0 = Probe.now () in
  let built, ctl = controller_rig ~k:spec.k in
  let yfs = Yanc.Controller.yfs ctl in
  provision yfs built;
  Yanc.Controller.add_app ctl
    (Apps.Ecmp_router.app (Apps.Ecmp_router.create yfs));
  let setup_s = Probe.now () -. t0 in
  let failures = ref [] in
  let mgr = Yanc.Controller.manager ctl in
  check failures (all_connected mgr) "handshake: a switch is not connected";
  let net = Yanc.Controller.net ctl in
  let hosts = List.length built.N.Topo_gen.host_names in
  let wl = workload_gen ~seed ~hosts ~start:(Yanc.Controller.now ctl) in
  let tele = Yanc.Controller.telemetry ctl in
  let reg = Telemetry.registry tele in
  let tracer = Telemetry.tracer tele in
  ignore (Telemetry.Tracer.drain tracer);
  let paths = Paths.create () and marks = Marks.create () in
  let drops0 = Telemetry.Tracer.drops tracer in
  let bytes0 = channel_bytes mgr in
  let cpu0 = sched_cpu_of [ ctl ] in
  let s0 = snapshot [ reg ] in
  let g0 = gc_mark () in
  ignore (Marks.push marks (Probe.start probe));
  let injected = ref 0 in
  let tail_end = ref infinity in
  while !injected < spec.arrivals || N.Network.now net < !tail_end do
    if !injected < spec.arrivals then begin
      injected := !injected + inject probe wl net;
      if !injected >= spec.arrivals then tail_end := N.Network.now net +. tail_s
    end;
    step probe ctl;
    let mark = Marks.push marks (Probe.measured probe) in
    drain_data_plane probe net;
    let c0 = Probe.now () in
    Paths.collect paths ~mark [ tracer ];
    Probe.exclude_since probe c0
  done;
  ignore (Marks.push marks (Probe.measured probe));
  let g1 = gc_mark () in
  let s1 = snapshot [ reg ] in
  let cpu =
    cpu ~sched0:cpu0 ~sched1:(sched_cpu_of [ ctl ]) ~max_node_busy_s:0.
      ~replay_busy_s:0.
  in
  let d = delta s0 s1 in
  let di name = int_of_float (d name) in
  let installs = di "driver.commit.adds" in
  let routed = di "app.ecmpd.installs" in
  let requests = Paths.requests paths in
  let rounds = marks.Marks.n - 2 in
  check failures
    (di "driver.pktin.published" = !injected)
    (Printf.sprintf "packet-ins %d <> arrivals %d" (di "driver.pktin.published")
       !injected);
  List.iter
    (fun c -> check failures (di c = 0) (Printf.sprintf "%s = %d" c (di c)))
    [ "app.ecmpd.no_route"; "app.ecmpd.unknown_dst"; "driver.pktin.dropped";
      "driver.fs_errors" ];
  check failures
    (Reg.find s1 "rounds.switch.install.max" = Some 0.)
    "rounds.switch.install max <> 0: an install left its packet-in's round";
  check failures
    (Telemetry.Tracer.drops tracer = drops0)
    "span ring overran: latency samples lost";
  check failures
    (List.length requests = routed)
    (Printf.sprintf "latency samples %d <> paths %d" (List.length requests)
       routed);
  let diverged =
    List.filter
      (fun dpid -> not (switch_agrees yfs net dpid))
      built.N.Topo_gen.dpids
  in
  check failures (diverged = [])
    (Printf.sprintf "hardware <> FS on %d switches" (List.length diverged));
  { setup_s; marks = Marks.to_array marks; requests; installs;
    ops = installs; attempted = !injected;
    failed = max 0 (!injected - routed);
    counts =
      layer_counts ~s0 ~s1 ~g0 ~g1 ~installs ~rounds ~edits:0 ~paths:routed
        ~channel_bytes:(channel_bytes mgr - bytes0);
    cpu; failures = List.rev !failures }

(* --- policy edits ---------------------------------------------------------- *)

(* E22's clause generator: clause [i] forwards one /32, distinct per i,
   so a one-clause edit compiles to one rule removed and one added. *)
let clause i =
  Printf.sprintf "filter dl_type = 0x0800 && nw_dst = 10.%d.%d.%d ; fwd(%d)"
    (i / 250) (i mod 250) (i mod 7)
    (1 + (i mod 4))

let policy_text clauses =
  String.concat "\n| " (Array.to_list (Array.map clause clauses))

(* The seed picks which clause each edit replaces: a seeded shuffle of
   the positions, so no position is edited twice while fresh ones
   remain (repeated edits in one gap would exhaust its priorities and
   fall back to a full renumber, which is not the path under test). *)
let edit_positions ~seed ~clauses ~edits =
  let rng = N.Prng.create ~seed in
  let order = Array.init clauses Fun.id in
  for i = clauses - 1 downto 1 do
    let j = N.Prng.below rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.init edits (fun e -> order.(e mod clauses))

(* hardware = FS = desired on every switch: the pol_* flow names in the
   FS are the desired (content-hashed) names, and the hardware rules in
   the policy band, highest priority first, are the desired rules in
   order. *)
let policy_converged ctl eng =
  let yfs = Yanc.Controller.yfs ctl in
  let net = Yanc.Controller.net ctl in
  let desired = Apps.Policy_engine.desired eng in
  let want_names =
    List.sort compare
      (List.map (fun (r : Policy.Compile.flow_rule) -> r.name) desired)
  in
  let want_hw =
    List.map
      (fun (r : Policy.Compile.flow_rule) -> (r.of_match, r.actions))
      desired
  in
  let prefix = Apps.Policy_engine.flow_prefix in
  let pl = String.length prefix in
  List.for_all
    (fun swname ->
      let names =
        Y.Yanc_fs.Name_set.elements (Y.Yanc_fs.flow_name_set yfs ~cred swname)
        |> List.filter (fun n ->
               String.length n > pl && String.sub n 0 pl = prefix)
      in
      names = want_names
      &&
      match Y.Yanc_fs.switch_dpid yfs swname with
      | None -> false
      | Some dpid -> (
        match N.Network.switch net dpid with
        | None -> false
        | Some sw ->
          let entries =
            match N.Sim_switch.table sw 0 with
            | None -> []
            | Some tbl -> N.Flow_table.entries tbl
          in
          let hw =
            List.filter
              (fun (e : N.Flow_table.entry) ->
                e.priority > Policy.Compile.priority_floor
                && e.priority < Policy.Compile.priority_base)
              entries
            |> List.stable_sort (fun (a : N.Flow_table.entry) b ->
                   compare b.priority a.priority)
            |> List.map (fun (e : N.Flow_table.entry) -> (e.of_match, e.actions))
          in
          List.length hw = List.length want_hw
          && List.for_all2
               (fun (m1, a1) (m2, a2) -> Openflow.Of_match.equal m1 m2 && a1 = a2)
               hw want_hw))
    (Y.Yanc_fs.switch_names yfs)

(* An edit that has not converged after this many rounds failed. *)
let round_cap = 200

let policy probe ~spec ~seed =
  let t0 = Probe.now () in
  let built, ctl = controller_rig ~k:spec.k in
  let eng = Yanc.Controller.add_policy_engine ctl in
  let fs = Yanc.Controller.fs ctl in
  let net = Yanc.Controller.net ctl in
  let file = Y.Layout.policy_file "bench" in
  let write text =
    match Vfs.Fs.write_file fs ~cred file text with
    | Ok () -> true
    | Error _ -> false
  in
  let current = Array.init spec.clauses Fun.id in
  let base_ok = write (policy_text current) in
  (* Rounds until converged; the check runs off the measured clock. *)
  let settle () =
    let rec go n =
      if n >= round_cap then false
      else begin
        step probe ctl;
        drain_data_plane probe net;
        let c0 = Probe.now () in
        let ok = policy_converged ctl eng in
        Probe.exclude_since probe c0;
        ok || go (n + 1)
      end
    in
    go 0
  in
  let base_converged = base_ok && settle () in
  let setup_s = Probe.now () -. t0 in
  let failures = ref [] in
  let mgr = Yanc.Controller.manager ctl in
  check failures (all_connected mgr) "handshake: a switch is not connected";
  check failures base_converged "base policy did not converge";
  let switches = List.length built.N.Topo_gen.dpids in
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  let positions = edit_positions ~seed ~clauses:spec.clauses ~edits:spec.edits in
  let bytes0 = channel_bytes mgr in
  let cpu0 = sched_cpu_of [ ctl ] in
  let names l = List.map (fun (r : Policy.Compile.flow_rule) -> r.name) l in
  let s0 = snapshot [ reg ] in
  let g0 = gc_mark () in
  let marks = Marks.create () in
  ignore (Marks.push marks (Probe.start probe));
  let requests = ref [] and failed = ref 0 and rounds = ref 0 in
  let installed = ref [] in
  Array.iteri
    (fun e pos ->
      let c0 = Probe.now () in
      current.(pos) <- spec.clauses + e;
      let text = policy_text current in
      Probe.exclude_since probe c0;
      let written = Marks.push marks (Probe.measured probe) in
      let converged =
        write text
        &&
        let rec go n =
          if n >= round_cap then false
          else begin
            step probe ctl;
            drain_data_plane probe net;
            incr rounds;
            let mark = Marks.push marks (Probe.measured probe) in
            let c0 = Probe.now () in
            let ok = policy_converged ctl eng in
            Probe.exclude_since probe c0;
            if ok then requests := (written, mark) :: !requests;
            ok || go (n + 1)
          end
        in
        go 0
      in
      if not converged then incr failed;
      installed := (e, text, names (Apps.Policy_engine.desired eng)) :: !installed)
    positions;
  ignore (Marks.push marks (Probe.measured probe));
  let g1 = gc_mark () in
  let s1 = snapshot [ reg ] in
  if Probe.traced probe then
    (* Each edit's compile repeated from outside and timed on its own,
       after the measured phase: it is a share of yanc.scheduler.tick,
       not additive to it. *)
    List.iter
      (fun (e, text, desired) ->
        let c0 = Probe.now () in
        let rules =
          match Policy.Syntax.parse text with
          | Error _ -> None
          | Ok ir -> Result.to_option (Policy.Compile.to_flows ir)
        in
        Probe.charge probe Probe.Compile c0;
        check failures
          (Option.map names rules = Some desired)
          (Printf.sprintf "edit %d: Policy.Compile.to_flows <> Policy_engine.desired" e))
      (List.rev !installed);
  let cpu =
    cpu ~sched0:cpu0 ~sched1:(sched_cpu_of [ ctl ]) ~max_node_busy_s:0.
      ~replay_busy_s:0.
  in
  let d = delta s0 s1 in
  let installs = int_of_float (d "driver.commit.adds") in
  let mods = installs + int_of_float (d "driver.commit.deletes") in
  check failures (!failed = 0)
    (Printf.sprintf "%d edits did not converge within %d rounds" !failed round_cap);
  check failures (d "policy.compile_errors" = 0.)
    (Printf.sprintf "policy.compile_errors = %.0f" (d "policy.compile_errors"));
  check failures (d "driver.fs_errors" = 0.)
    (Printf.sprintf "driver.fs_errors = %.0f" (d "driver.fs_errors"));
  check failures
    (mods = 2 * switches * spec.edits)
    (Printf.sprintf "flow_mods %d <> 2 x %d switches x %d edits" mods switches
       spec.edits);
  { setup_s; marks = Marks.to_array marks; requests = !requests; installs;
    ops = spec.edits; attempted = spec.edits; failed = !failed;
    counts =
      layer_counts ~s0 ~s1 ~g0 ~g1 ~installs ~rounds:!rounds ~edits:spec.edits
        ~paths:0 ~channel_bytes:(channel_bytes mgr - bytes0);
    cpu; failures = List.rev !failures }

(* --- cluster --------------------------------------------------------------- *)

(* After the last arrival the cluster must converge (every shard owned,
   drivers connected, replication quiet, hardware = FS) within this
   many sim seconds; [Yanc.Cluster.converged] is first checked after
   [tail_s] and then every [settle_every]. *)
let settle_cap_s = 5.

let settle_every = 0.05

let cluster probe ~spec ~seed =
  let t0 = Probe.now () in
  let built = N.Topo_gen.fat_tree ~k:spec.k () in
  let net = built.N.Topo_gen.net in
  let c = Yanc.Cluster.create ~tuning ~n:spec.nodes ~net () in
  let booted =
    Yanc.Cluster.run_until ~tick:0.01 c (fun () -> Yanc.Cluster.converged c)
  in
  (* Inventory goes in once, via node 0; peers and hosts are not
     shard-routed, so replication carries them to every node. *)
  provision (Yanc.Controller.yfs (Yanc.Cluster.controller c 0)) built;
  Yanc.Cluster.run_for ~tick:0.01 c 0.2;
  let idx = ref 0 in
  Yanc.Cluster.add_app c (fun ctl ->
      let tag = Printf.sprintf "-n%d" !idx in
      incr idx;
      Apps.Ecmp_router.app (Apps.Ecmp_router.create ~tag (Yanc.Controller.yfs ctl)));
  let setup_s = Probe.now () -. t0 in
  let failures = ref [] in
  check failures booted "cluster did not converge at boot";
  let nodes = Yanc.Cluster.live_indexes c in
  let ctls = List.map (Yanc.Cluster.controller c) nodes in
  let regs = List.map (fun ctl -> Telemetry.registry (Yanc.Controller.telemetry ctl)) ctls in
  let tracers = List.map (fun ctl -> Telemetry.tracer (Yanc.Controller.telemetry ctl)) ctls in
  let drops () = List.fold_left (fun a t -> a + Telemetry.Tracer.drops t) 0 tracers in
  let bytes () =
    List.fold_left
      (fun a ctl -> a + channel_bytes (Yanc.Controller.manager ctl))
      0 ctls
  in
  let busy () = List.map (Yanc.Cluster.busy_s c) nodes in
  let replay () =
    List.fold_left
      (fun a i -> a +. Dfs.Cluster.replay_busy_s (Yanc.Cluster.dfs c) i)
      0. nodes
  in
  let hosts = List.length built.N.Topo_gen.host_names in
  let wl = workload_gen ~seed ~hosts ~start:(N.Network.now net) in
  List.iter (fun t -> ignore (Telemetry.Tracer.drain t)) tracers;
  let paths = Paths.create () and marks = Marks.create () in
  let drops0 = drops () and bytes0 = bytes () in
  let busy0 = busy () and replay0 = replay () in
  let cpu0 = sched_cpu_of ctls in
  let s0 = snapshot regs in
  let g0 = gc_mark () in
  ignore (Marks.push marks (Probe.start probe));
  let round () =
    let t0 = Probe.now () in
    Yanc.Cluster.step ~tick c;
    Probe.charge probe Probe.Cluster_step t0;
    (* The data plane drains inside the step, after the nodes ran: a
       miss raised there is timed from the step's end. *)
    let mark = Marks.push marks (Probe.measured probe) in
    let c0 = Probe.now () in
    Paths.collect paths ~mark tracers;
    Probe.exclude_since probe c0
  in
  let injected = ref 0 in
  while !injected < spec.arrivals do
    injected := !injected + inject probe wl net;
    round ()
  done;
  let last = N.Network.now net in
  let converged () =
    let c0 = Probe.now () in
    let ok = Yanc.Cluster.converged c in
    Probe.exclude_since probe c0;
    ok
  in
  let rec settle until =
    while N.Network.now net < until do round () done;
    if converged () then true
    else if until >= last +. settle_cap_s then false
    else settle (until +. settle_every)
  in
  let settled = settle (last +. tail_s) in
  ignore (Marks.push marks (Probe.measured probe));
  let g1 = gc_mark () in
  let s1 = snapshot regs in
  let sched1 = sched_cpu_of ctls in
  let d = delta s0 s1 in
  let di name = int_of_float (d name) in
  let installs = di "driver.commit.adds" in
  let routed = di "app.ecmpd.installs" in
  let requests = Paths.requests paths in
  let rounds = marks.Marks.n - 2 in
  check failures settled
    (Printf.sprintf "not converged %.0f sim-s after the last arrival" settle_cap_s);
  check failures (Yanc.Cluster.divergent c = []) "Yanc.Cluster.divergent <> []";
  List.iter
    (fun c -> check failures (di c = 0) (Printf.sprintf "%s = %d" c (di c)))
    [ "app.ecmpd.no_route"; "app.ecmpd.unknown_dst"; "driver.pktin.dropped";
      "driver.fs_errors" ];
  check failures (drops () = drops0) "span ring overran: latency samples lost";
  check failures
    (List.length requests = routed)
    (Printf.sprintf "latency samples %d <> paths %d" (List.length requests)
       routed);
  let busy =
    List.map2 (fun b b0 -> b -. b0) (busy ()) busy0
  in
  { setup_s; marks = Marks.to_array marks; requests; installs;
    ops = installs; attempted = !injected;
    failed = max 0 (!injected - routed);
    counts =
      layer_counts ~s0 ~s1 ~g0 ~g1 ~installs ~rounds ~edits:0 ~paths:routed
        ~channel_bytes:(bytes () - bytes0);
    cpu =
      cpu ~sched0:cpu0 ~sched1 ~max_node_busy_s:(List.fold_left max 0. busy)
        ~replay_busy_s:(replay () -. replay0);
    failures = List.rev !failures }

let run w ~size ~seed probe =
  let spec = spec w size in
  match w with
  | Storm_k8 | Storm_k16 -> storm probe ~spec ~seed
  | Policy_edit -> policy probe ~spec ~seed
  | Cluster_n4 -> cluster probe ~spec ~seed
