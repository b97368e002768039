(* E20 — sharded multi-node controller: N nodes over the DFS partition
   a fat-tree by rendezvous-hashed switch ownership (paper §6 at fleet
   scale). One process simulates the whole cluster, so aggregate
   throughput is judged against the critical path — max per-node busy
   seconds (own control loop + its replica's op-log replay) — since in
   the modeled deployment each node is its own machine. Takeover
   latency is sim time from kill to reconvergence (lease expiry +
   reconcile beat + attach resync). Writes BENCH_cluster.json. *)

open Harness

type out = {
  n : int;
  k : int;
  switches : int;
  arrivals : int;
  installs : int;
  sim_s : float;
  wall_s : float;
  max_busy_s : float;
  sum_busy_s : float;
  converged : bool;
  ops_synced : int;
  per_node : (string * int * int * float) list;
      (* name, switches owned, installs, busy_s *)
}

let seed = 0xC1A57E

let tick = 0.005

(* installs per critical-path second: total installs over the busiest
   node's CPU seconds — what the cluster sustains when each node runs
   on its own machine. *)
let rate r =
  float_of_int r.installs
  /. (if r.max_busy_s > 0. then r.max_busy_s else epsilon_float)

let storm ?(rate = 4000.) ~arrivals ~n ~k () =
  let rig, c = Rig.cluster ~n ~k () in
  let wl = Rig.workload rig ~rate ~seed in
  let installs0 = Yanc.Cluster.installs c in
  let before =
    List.map
      (fun i -> (i, Yanc.Cluster.node_installs c i, Yanc.Cluster.busy_s c i))
      (Yanc.Cluster.live_indexes c)
  in
  let sim0 = N.Network.now rig.net in
  let wall0 = Sys.time () in
  let injected = Rig.drive ~tick rig wl ~arrivals in
  (* settle the replication tail so every install is attributed *)
  Yanc.Cluster.run_for ~tick c 0.25;
  let wall_s = Sys.time () -. wall0 in
  let per_node =
    List.map
      (fun (i, installs0, busy0) ->
        ( Yanc.Cluster.name_of c i,
          List.length
            (Driver.Manager.attached
               (Yanc.Controller.manager (Yanc.Cluster.controller c i))),
          Yanc.Cluster.node_installs c i - installs0,
          Yanc.Cluster.busy_s c i -. busy0 ))
      before
  in
  let busy = List.map (fun (_, _, _, b) -> b) per_node in
  { n;
    k;
    switches = List.length rig.built.N.Topo_gen.dpids;
    arrivals = injected;
    installs = Yanc.Cluster.installs c - installs0;
    sim_s = N.Network.now rig.net -. sim0;
    wall_s;
    max_busy_s = List.fold_left max 0. busy;
    sum_busy_s = List.fold_left ( +. ) 0. busy;
    converged = Yanc.Cluster.converged c;
    ops_synced =
      fs_count (Dfs.Cluster.node (Yanc.Cluster.dfs c) 0) "dfs.ops_synced";
    per_node }

(* Takeover: storm briefly so the fleet carries installed state, kill
   the highest-indexed [kill_count] nodes at once, and time the sim
   seconds until the survivors converge (every orphan re-owned,
   hardware ≡ filesystem). Returns (converged, latency, orphaned
   shards, reclaimed). *)
let takeover ?(kill_count = 1) ~n ~k () =
  let rig, c = Rig.cluster ~n ~k () in
  let wl = Rig.workload rig ~rate:2000. ~seed:0xFA110C in
  ignore (Rig.drive ~tick:0.01 rig wl ~arrivals:(60 * n));
  if not (Yanc.Cluster.run_until ~tick:0.01 c (fun () -> Yanc.Cluster.converged c))
  then failwith "e20: cluster failed to converge before the kill";
  let victims = List.init kill_count (fun i -> n - 1 - i) in
  let orphans =
    List.filter
      (fun d ->
        match Yanc.Cluster.owner_index c d with
        | Some o -> List.mem o victims
        | None -> false)
      rig.built.N.Topo_gen.dpids
  in
  let t0 = N.Network.now rig.net in
  List.iter (Yanc.Cluster.kill c) victims;
  let ok =
    Yanc.Cluster.run_until ~tick:0.01 ~timeout:30. c (fun () ->
        Yanc.Cluster.converged c)
  in
  let latency = N.Network.now rig.net -. t0 in
  let reclaimed =
    List.fold_left
      (fun acc i -> acc + Yanc.Cluster.takeovers c i)
      0 (Yanc.Cluster.live_indexes c)
  in
  (ok, latency, List.length orphans, reclaimed)

let print_row r =
  row "  %3d | %3d | %8d | %8d | %8d | %10.3f | %10.3f | %7.2f | %13.0f | %9s\n"
    r.n r.k r.switches r.arrivals r.installs r.max_busy_s
    r.sum_busy_s r.wall_s (rate r)
    (if r.converged then "yes" else "NO")

(* Each series point's throughput over the n=1 point at the same k. *)
let speedup series r =
  match List.find_opt (fun b -> b.n = 1 && b.k = r.k) series with
  | Some b when rate b > 0. -> rate r /. rate b
  | _ -> 1.

let json_of_out series r =
  Json.(
    Obj
      [ "n", Int r.n; "k", Int r.k; "switches", Int r.switches;
        "arrivals", Int r.arrivals; "installs", Int r.installs;
        "sim_s", Float (6, r.sim_s); "wall_s", Float (6, r.wall_s);
        "max_busy_s", Float (6, r.max_busy_s);
        "sum_busy_s", Float (6, r.sum_busy_s);
        "installs_per_busy_s", Float (1, rate r);
        "speedup_vs_n1", Float (2, speedup series r);
        "converged", Bool r.converged; "ops_synced", Int r.ops_synced;
        "per_node",
        List
          (List.map
             (fun (name, sw, inst, busy) ->
               Obj
                 [ "name", String name; "switches", Int sw;
                   "installs", Int inst; "busy_s", Float (6, busy) ])
             r.per_node) ])

(* Prints the table and returns the BENCH_cluster.json artifact. *)
let run () =
  section
    "E20  sharded cluster: N nodes, rendezvous switch ownership over the DFS";
  row "  %3s | %3s | %8s | %8s | %8s | %10s | %10s | %7s | %13s | %9s\n"
    "n" "k" "switches" "arrivals" "installs" "max busy s" "sum busy s"
    "wall s" "inst/busy s" "converged";
  (* fixed offered load per k: the same storm hits every fleet size, so
     speedup is work conservation, not extra work *)
  let point ?rate ~arrivals ~k n =
    let r = storm ?rate ~arrivals ~n ~k () in
    print_row r;
    r
  in
  let series =
    let k8 = List.map (point ~arrivals:3000 ~k:8) [ 1; 2; 4; 8 ] in
    k8 @ List.map (point ~rate:8000. ~arrivals:2000 ~k:16) [ 1; 4 ]
  in
  List.iter
    (fun r ->
      if r.n > 1 then
        row "  speedup n=%d (k=%d): %.2fx over n=1\n" r.n r.k (speedup series r))
    series;
  let takeovers =
    List.map
      (fun (n, killed) ->
        let ok, latency, orphans, reclaimed =
          takeover ~kill_count:killed ~n ~k:8 ()
        in
        row "  takeover: kill %d of %d -> %s in %.3f sim s (%d orphans, %d \
             reclaimed)\n"
          killed n
          (if ok then "reconverged" else "STUCK")
          latency orphans reclaimed;
        Json.(
          Obj
            [ "n", Int n; "k", Int 8; "killed", Int killed;
              "converged", Bool ok; "latency_s", Float (3, latency);
              "orphaned_shards", Int orphans; "reclaimed", Int reclaimed ]))
      [ (2, 1); (4, 1); (4, 2); (8, 2) ]
  in
  Json.(
    Obj
      [ "bench", String "e20_cluster_shard";
        "generated_by", String "dune exec bench/main.exe -- artifacts";
        "seed", Int seed; "tick_s", Float (3, tick);
        "replication_factor", Int 2;
        "lease_ttl_s", Float (1, 1.0); "renew_every_s", Float (2, 0.25);
        "reconcile_every_s", Float (1, 0.1);
        "throughput_metric",
        String
          "installs / max per-node busy seconds (critical path; one process \
           simulates all nodes)";
        "series", List (List.map (json_of_out series) series);
        "takeover", List takeovers ])
