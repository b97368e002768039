(* The sharded multi-node controller (paper §6): N single-node
   controllers, each mounted on one replica of a {!Dfs.Cluster}, with
   switch ownership partitioned by the rendezvous shard map and
   recorded in the file system itself.

   Everything coordinating the nodes is a file:

     /yanc/cluster/nodes/<node>/lease   expiry on the shared sim clock
     /yanc/cluster/shards/<dpid>        "owner replica,replica,.."

   Cluster metadata is pinned [Sequential] through the DFS prefix
   override (the small consistent store of an Onix-style design), while
   flow state rides the delayed, coalescing op-log — and rides it only
   to the shard's replica set, so replication work per node stays
   bounded as N grows.

   Each node runs its own {!Controller} (manager, scheduler, apps,
   telemetry, per-node procfs at /yanc/nodes/<name>/.proc) and, on a
   reconcile beat, renews its lease, derives the live membership from
   the lease files on its own replica, and attaches exactly the
   switches the shard map awards it. A node death is a frozen loop: its
   lease stops renewing, survivors observe the expiry, the shard map
   re-awards its switches to their runner-ups (which, being in the
   replica set, already hold the flow state), and the attach-time
   handshake's reconcile of the switch's own table brings hardware to
   the new owner's replica. *)

module Shard_map = Dfs.Shard_map

type node = {
  index : int;
  name : string;
  ctl : Controller.t;
  mutable alive : bool;
  mutable busy_s : float;           (* wall CPU inside this node's loop *)
  mutable next_renew : float;
  mutable last_members : string list;  (* membership at last full audit *)
  mutable takeovers : int;          (* shards claimed after boot *)
  fs_errors : Telemetry.Registry.counter;  (* cluster.fs_errors *)
}

type t = {
  dfs : Dfs.Cluster.t;
  net : Netsim.Network.t;
  nodes : node array;
  dpids : int64 list;
  factor : int;
  version : Controller.version;
  (* dpid -> replica indexes, rebuilt on membership change; consulted by
     the DFS route policy on every op, so it must be a lookup, not a
     hash computation. *)
  shard_routes : (int64, int list) Hashtbl.t;
  (* dpid -> owning member under the bounded-load shard map; rebuilt
     alongside [shard_routes]. Plain rendezvous lands switch counts
     binomially, so one node ends up the fleet's critical path —
     ownership uses the load-capped assignment instead. *)
  shard_owners : (int64, string) Hashtbl.t;
  mutable route_members : string list;
  mutable next_reconcile : float;
  mutable dfs_clock : float;
  mutable booted : bool;
  (* Lease expiry of each member observed dead, keyed by name — the
     honest start of the takeover clock: survivors can only measure
     from when the lease ran out, and the file still says when that
     was. Feeds the [cluster.takeover.latency] histogram per claim. *)
  dead_expiry : (string, float) Hashtbl.t;
}

let cred = Vfs.Cred.root

(* Leases last [lease_ttl] seconds and are renewed every [renew_every];
   membership and ownership are re-derived every [reconcile_every]. *)
let lease_ttl = 1.0

let renew_every = 0.25

let reconcile_every = 0.1

let node_name i = Printf.sprintf "n%d" i

let node_tracer node = Telemetry.tracer (Controller.telemetry node.ctl)

let node_registry node = Telemetry.registry (Controller.telemetry node.ctl)

(* Correlation key linking a takeover's phases: stamped by the detect
   span, resumed by every claim of the dead member's shards — so
   detect → re-own → resync share one trace id. *)
let takeover_key member = "takeover:" ^ member

let index_of_name name =
  try Some (int_of_string (String.sub name 1 (String.length name - 1)))
  with _ -> None

(* --- file-system records ------------------------------------------------------ *)

(* A failed coordination write (lease, shard claim, black box, proc
   mount) is logged and counted in [cluster.fs_errors], which the
   cluster_fs_errors health probe judges Crit: a lease that stops
   renewing silently would look like a dead node to every peer. *)
let fs_checked node path = function
  | Ok () -> ()
  | Error e ->
    Telemetry.Registry.incr node.fs_errors;
    Logs.warn (fun m ->
        m "cluster[%s]: fs write failed (%s): %s" node.name
          (Vfs.Path.to_string path) (Vfs.Errno.message e))

let write_file node path data =
  let fs = Controller.fs node.ctl in
  fs_checked node path
    (Result.bind
       (Vfs.Fs.mkdir_p fs ~cred (Option.get (Vfs.Path.parent path)))
       (fun () -> Vfs.Fs.write_file fs ~cred path data))

let renew_lease node ~now =
  write_file node
    (Yancfs.Layout.cluster_lease node.name)
    (Printf.sprintf "%.6f\n" (now +. lease_ttl));
  node.next_renew <- now +. renew_every

(* The membership as node [i] sees it: every member whose lease, read
   from this node's replica, has not expired. *)
let members_view t i ~now =
  let fs = Dfs.Cluster.node t.dfs i in
  match Vfs.Fs.readdir fs ~cred Yancfs.Layout.cluster_nodes_dir with
  | Error _ -> []
  | Ok names ->
    List.filter
      (fun name ->
        match Vfs.Fs.read_file fs ~cred (Yancfs.Layout.cluster_lease name) with
        | Error _ -> false
        | Ok data -> (
          match float_of_string_opt (String.trim data) with
          | Some expiry -> expiry > now
          | None -> false))
      (List.sort compare names)

let shard_record_of t i dpid =
  let fs = Dfs.Cluster.node t.dfs i in
  match Vfs.Fs.read_file fs ~cred (Yancfs.Layout.cluster_shard dpid) with
  | Error _ -> None
  | Ok data -> (
    match String.split_on_char ' ' (String.trim data) with
    | [ owner; reps ] -> Some (owner, String.split_on_char ',' reps)
    | [ owner ] -> Some (owner, [ owner ])
    | _ -> None)

let write_shard_record node dpid ~reps =
  write_file node
    (Yancfs.Layout.cluster_shard dpid)
    (Printf.sprintf "%s %s\n" node.name (String.concat "," reps))

(* --- shard-aware op routing --------------------------------------------------- *)

(* An op belongs to a shard iff it lives under a switch's flows/ in the
   master tree (the hot-path volume): the schema names the switch.
   Everything else (ports, peers, status, hosts, a view's flows, cluster
   metadata, proc trees) replicates everywhere. *)
let dpid_of_op op =
  match Yancfs.Schema.(walk_to ~root:Yancfs.Layout.default_root (Vfs.Op.path op) flows) with
  | [ sw ] -> Int64.of_string_opt (Yancfs.Schema.(number switch) sw)
  | _ -> None

(* Replica set under balanced ownership: the capped owner first, then
   the highest-weight remaining members — a spilled shard keeps its
   rendezvous favourites as secondaries. *)
let shard_reps t ~members dpid =
  match Hashtbl.find_opt t.shard_owners dpid with
  | None -> Shard_map.replicas ~members ~k:t.factor ~dpid
  | Some owner ->
    let rest =
      List.filter
        (fun m -> m <> owner)
        (Shard_map.replicas ~members ~k:(List.length members) ~dpid)
    in
    owner :: List.filteri (fun i _ -> i < t.factor - 1) rest

let recompute_routes t members =
  Hashtbl.reset t.shard_routes;
  Hashtbl.reset t.shard_owners;
  List.iter
    (fun (dpid, owner) -> Hashtbl.replace t.shard_owners dpid owner)
    (Shard_map.assign_balanced ~members ~dpids:t.dpids ());
  List.iter
    (fun dpid ->
      let reps = shard_reps t ~members dpid in
      Hashtbl.replace t.shard_routes dpid
        (List.filter_map index_of_name reps))
    t.dpids;
  t.route_members <- members

let route t op ~origin:_ =
  match dpid_of_op op with
  | None -> None
  | Some dpid -> Hashtbl.find_opt t.shard_routes dpid

(* The correlation key a replicated flow op re-stamps on the applying
   node — the same key shape the writing app stamps locally, so the
   owning node's driver resumes the cross-node trace at install time
   without knowing the op ever crossed a machine boundary. *)
let trace_key_of_op op =
  match Yancfs.Schema.(walk_to ~root:Yancfs.Layout.default_root (Vfs.Op.path op) flow) with
  | [ flow; sw ] -> Some (Yancfs.Layout.trace_key_flow ~switch:sw flow)
  | _ -> None

(* --- ownership reconcile ------------------------------------------------------ *)

let attached_set node =
  let h = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace h d ())
    (Driver.Manager.attached (Controller.manager node.ctl));
  h

(* Claim a shard: bring this replica (and any newly promoted
   secondaries) up to date, record the claim, attach the driver. The
   anti-entropy sync is what makes a promotion safe when the claimant
   or a new secondary was outside the previous replica set. The fresh
   driver's handshake then reconciles the switch's own table with this
   replica: rules the replica lacks are re-added, and rules the dead
   owner installed but never replicated are strays and are deleted.

   Post-boot claims are takeover work: the claim runs as a
   [cluster.takeover.reown] span (resuming the trace the detect phase
   stamped for the dead previous owner, so detect → re-own → resync is
   one trace), anti-entropy runs as nested [cluster.takeover.resync]
   spans, and the time from the dead owner's lease expiry to this claim
   feeds the [cluster.takeover.latency] histogram. *)
let claim t node dpid ~members ~now =
  let tracer = node_tracer node in
  let sw_path =
    Yancfs.Layout.switch ~root:(Yancfs.Yanc_fs.root (Controller.yfs node.ctl))
      (Yancfs.Yanc_fs.switch_name_of_dpid dpid)
  in
  let reps = shard_reps t ~members dpid in
  let prev = shard_record_of t node.index dpid in
  let takeover = t.booted in
  let prev_owner = match prev with Some (owner, _) -> Some owner | None -> None in
  let resync f =
    if takeover then
      Telemetry.Tracer.span tracer ~stage:"cluster.takeover.resync" f
    else f ()
  in
  let body () =
    (match prev with
    | Some (_, prev_reps) when not (List.mem node.name prev_reps) ->
      (* I was not carrying this shard's state: pull it from a surviving
         previous replica before trusting my copy. *)
      (match
         List.find_opt
           (fun r -> List.mem r members && r <> node.name)
           prev_reps
       with
      | Some src -> (
        match index_of_name src with
        | Some si ->
          resync (fun () ->
              ignore
                (Dfs.Cluster.sync_subtree t.dfs ~from_:si ~to_:node.index
                   sw_path))
        | None -> ())
      | None -> ())
    | _ -> ());
    (* Push state to secondaries that just joined the replica set. *)
    let prev_reps = match prev with Some (_, r) -> r | None -> [] in
    List.iter
      (fun r ->
        if r <> node.name && not (List.mem r prev_reps) then
          match index_of_name r with
          | Some ri ->
            resync (fun () ->
                ignore
                  (Dfs.Cluster.sync_subtree t.dfs ~from_:node.index ~to_:ri
                     sw_path))
          | None -> ())
      reps;
    write_shard_record node dpid ~reps;
    if takeover then begin
      node.takeovers <- node.takeovers + 1;
      match prev_owner with
      | Some owner when owner <> node.name -> (
        match Hashtbl.find_opt t.dead_expiry owner with
        | Some expiry ->
          Telemetry.Registry.observe
            (Telemetry.Registry.histogram (node_registry node)
               "cluster.takeover.latency")
            (max 0. (now -. expiry))
        | None -> ())
      | _ -> ()
    end;
    Controller.attach node.ctl ~dpid ~version:t.version
  in
  if takeover then begin
    (match prev_owner with
    | Some owner when owner <> node.name ->
      ignore (Telemetry.Tracer.resume tracer (takeover_key owner))
    | _ -> ());
    Fun.protect
      ~finally:(fun () -> Telemetry.Tracer.clear tracer)
      (fun () ->
        Telemetry.Tracer.span tracer ~stage:"cluster.takeover.reown" body)
  end
  else body ()

(* Write the node's flight recorder to a replicated file — the black
   box pulled out after a takeover or a violated invariant survives its
   node, because it is just another file in the DFS. *)
let dump_blackbox node ~reason ~now =
  let bb = Telemetry.blackbox (Controller.telemetry node.ctl) in
  let data = Telemetry.Blackbox.dump bb ~reason ~now in
  write_file node
    (Yancfs.Layout.blackbox_dump ~node:node.name (Telemetry.Blackbox.dumps bb))
    data

(* The detect phase of a takeover: a member present at the last beat
   has no live lease any more. Mint the trace the re-own/resync claims
   will resume, remember the dead lease's expiry (the honest takeover
   clock start), and dump this survivor's flight recorder — the
   recent past, preserved before recovery overwrites it. *)
let detect_departures t node ~now ~members =
  let vanished =
    List.filter (fun m -> not (List.mem m members)) node.last_members
  in
  let tracer = node_tracer node in
  List.iter
    (fun member ->
      ignore (Telemetry.Tracer.fresh tracer);
      Fun.protect
        ~finally:(fun () -> Telemetry.Tracer.clear tracer)
        (fun () ->
          Telemetry.Tracer.span tracer ~stage:"cluster.takeover.detect"
            (fun () ->
              Telemetry.Tracer.stamp tracer (takeover_key member);
              (match
                 Vfs.Fs.read_file (Controller.fs node.ctl) ~cred
                   (Yancfs.Layout.cluster_lease member)
               with
              | Ok data -> (
                match float_of_string_opt (String.trim data) with
                | Some expiry -> Hashtbl.replace t.dead_expiry member expiry
                | None -> ())
              | Error _ -> ());
              Telemetry.Blackbox.fault
                (Telemetry.blackbox (Controller.telemetry node.ctl))
                ~at:now ~who:node.name
                ~what:(Printf.sprintf "member %s lease expired" member)));
      dump_blackbox node ~reason:(takeover_key member) ~now)
    vanished

let reconcile t node ~now =
  let members = members_view t node.index ~now in
  if members <> t.route_members then recompute_routes t members;
  let full_audit = members <> node.last_members in
  if t.booted then detect_departures t node ~now ~members;
  node.last_members <- members;
  let attached = attached_set node in
  List.iter
    (fun dpid ->
      let mine = Hashtbl.find_opt t.shard_owners dpid = Some node.name in
      let have = Hashtbl.mem attached dpid in
      if mine && not have then claim t node dpid ~members ~now
      else if (not mine) && have then
        Driver.Manager.detach (Controller.manager node.ctl) ~dpid
      else if mine && have && full_audit then
        (* Ownership unchanged but membership moved: the replica set may
           have rotated — refresh the record and sync new secondaries. *)
        let reps = shard_reps t ~members dpid in
        match shard_record_of t node.index dpid with
        | Some (_, prev_reps) when prev_reps = reps -> ()
        | _ -> claim t node dpid ~members ~now)
    t.dpids

(* --- ownership + fleet rollup ------------------------------------------------- *)

let live_indexes t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> if n.alive then Some n.index else None)

(* Which live node currently attaches each dpid; None = unowned. *)
let owner_index t dpid =
  let found = ref None in
  Array.iter
    (fun node ->
      if node.alive && !found = None then
        if
          List.exists (Int64.equal dpid)
            (Driver.Manager.attached (Controller.manager node.ctl))
        then found := Some node.index)
    t.nodes;
  !found

let unowned t =
  List.filter (fun dpid -> owner_index t dpid = None) t.dpids

(* Every shard judged against its owner's replica; a shard no live
   node attaches is its own class. *)
let shards t =
  let now = Netsim.Network.now t.net in
  List.filter_map
    (fun dpid ->
      match owner_index t dpid, Netsim.Network.switch t.net dpid with
      | None, _ -> Some (Audit.Unowned (Yancfs.Yanc_fs.switch_name_of_dpid dpid))
      | Some i, Some sw ->
        let yfs = Controller.yfs t.nodes.(i).ctl in
        Some (Audit.Owned (t.nodes.(i).name, Audit.switch yfs sw ~now ~desired:None))
      | Some _, None -> None)
    t.dpids

(* The fleet-wide snapshot behind /yanc/cluster/.proc/metrics: every
   live node's registry merged (counters summed, log₂ histograms merged
   bucket-wise — they compose exactly, so the rolled-up p99 is the
   percentile of the union), plus cluster-global facts appended once
   rather than sampled per node. *)
let rollup_snapshot t =
  let merged =
    Telemetry.Registry.merged_snapshot
      (Array.to_list t.nodes
      |> List.filter_map (fun n ->
             if n.alive then Some (node_registry n) else None))
  in
  Telemetry.Registry.of_entries
    (("cluster.live_nodes", float_of_int (List.length (live_indexes t)))
    :: ("cluster.nodes", float_of_int (Array.length t.nodes))
    :: ("cluster.unowned_shards", float_of_int (List.length (unowned t)))
    :: Telemetry.Registry.entries merged)

(* Mounted on every replica, so `cat /yanc/cluster/.proc/metrics` (or
   health, or fsck) on any node answers for the whole fleet. *)
let mount_rollup t =
  let proc = Yancfs.Layout.cluster_proc_root in
  Array.iter
    (fun node ->
      fs_checked node proc (Vfs.Fs.mkdir_p (Controller.fs node.ctl) ~cred proc);
      Yancfs.Procdir.add_file (Controller.proc node.ctl)
        (Yancfs.Layout.proc_metrics ~proc)
        (fun () -> Telemetry.Registry.render (rollup_snapshot t));
      Yancfs.Procdir.add_file (Controller.proc node.ctl)
        (Yancfs.Layout.proc_health ~proc)
        (fun () ->
          Telemetry.Health.render
            (Telemetry.Health.evaluate (rollup_snapshot t)));
      Yancfs.Procdir.add_file (Controller.proc node.ctl)
        (Yancfs.Layout.proc_fsck ~proc)
        (fun () -> Audit.render_shards (shards t)))
    t.nodes

(* --- construction ------------------------------------------------------------- *)

let create ?(consistency = Dfs.Consistency.Eventual { propagation_s = 0.05 })
    ?(replication_factor = 2) ?(version = Controller.V10) ?tracing ?tuning
    ?(seed = 9) ~n ~net () =
  let n = max 1 n in
  let dfs = Dfs.Cluster.create ~consistency ~n () in
  (* Metadata is the consistent store; checked by prefix so the hot
     path never probes xattrs. *)
  Dfs.Cluster.set_prefix_consistency dfs
    [ ("/yanc", Dfs.Consistency.Sequential) ];
  Dfs.Cluster.set_xattr_probing dfs false;
  let dpids =
    List.map Netsim.Sim_switch.dpid (Netsim.Network.switches net)
  in
  let nodes =
    Array.init n (fun i ->
        let name = node_name i in
        let ctl =
          Controller.create
            ~fs:(Dfs.Cluster.node dfs i)
            ~proc_root:(Yancfs.Layout.node_proc_root name)
            ?tracing ?tuning ~seed:(seed + (i * 7919)) ~net ()
        in
        { index = i; name; ctl; alive = true; busy_s = 0.;
          next_renew = neg_infinity; last_members = []; takeovers = 0;
          fs_errors =
            Telemetry.Registry.counter
              (Telemetry.registry (Controller.telemetry ctl))
              "cluster.fs_errors" })
  in
  let t =
    { dfs; net; nodes; dpids;
      factor = min replication_factor n; version;
      shard_routes = Hashtbl.create 256;
      shard_owners = Hashtbl.create 256; route_members = [];
      next_reconcile = neg_infinity; dfs_clock = Netsim.Network.now net;
      booted = false; dead_expiry = Hashtbl.create 8 }
  in
  Dfs.Cluster.set_route dfs (Some (route t));
  (* Cross-node tracing: give every node its own trace/span id slice
     (so ids stay cluster-unique when spans cross machines) and teach
     the DFS which tracer serves each replica and which correlation key
     a replicated flow op should re-stamp on arrival. The node's mount
     numbers its spool records in the same slice: a packet-out or event
     replicates to every node, so two nodes posting into one spool
     never pick the same name. *)
  Array.iter
    (fun node ->
      Telemetry.Tracer.set_id_base (node_tracer node) (node.index lsl 40);
      Yancfs.Yanc_fs.set_seq_base (Controller.yfs node.ctl) (node.index lsl 40))
    nodes;
  Dfs.Cluster.set_tracing dfs
    (Some
       ( (fun i ->
           if i >= 0 && i < Array.length nodes && nodes.(i).alive then
             Some (node_tracer nodes.(i))
           else None),
         trace_key_of_op ));
  Array.iter
    (fun node ->
      let reg = node_registry node in
      Telemetry.Registry.gauge reg "cluster.takeovers" (fun () ->
          float_of_int node.takeovers);
      Telemetry.Registry.gauge reg "cluster.members_seen" (fun () ->
          float_of_int (List.length node.last_members)))
    nodes;
  (* Seed every lease before the first reconcile so boot assigns shards
     against the full membership instead of a thundering claim-all. *)
  let now = Netsim.Network.now net in
  Array.iter (fun node -> renew_lease node ~now) nodes;
  mount_rollup t;
  t

let dfs t = t.dfs

let net t = t.net

let size t = Array.length t.nodes

let controller t i = t.nodes.(i).ctl

let name_of t i = t.nodes.(i).name

let alive t i = t.nodes.(i).alive

let add_app t make =
  Array.iter (fun node -> Controller.add_app node.ctl (make node.ctl)) t.nodes

let busy_s t i = t.nodes.(i).busy_s +. Dfs.Cluster.replay_busy_s t.dfs i

let takeovers t i = t.nodes.(i).takeovers

let counter_value t i name =
  let reg = Telemetry.registry (Controller.telemetry t.nodes.(i).ctl) in
  Telemetry.Registry.value (Telemetry.Registry.counter reg name)

let node_installs t i = counter_value t i "driver.commit.adds"

let installs t =
  Array.fold_left (fun acc n -> acc + node_installs t n.index) 0 t.nodes

(* --- the cluster loop --------------------------------------------------------- *)

let sync_dfs_clock t =
  let now = Netsim.Network.now t.net in
  if now > t.dfs_clock then begin
    Dfs.Cluster.advance t.dfs (now -. t.dfs_clock);
    t.dfs_clock <- now
  end

let step ?(tick = 0.005) t =
  let now = Netsim.Network.now t.net in
  let reconcile_due = now >= t.next_reconcile in
  if reconcile_due then t.next_reconcile <- now +. reconcile_every;
  Array.iter
    (fun node ->
      if node.alive then begin
        let t0 = Sys.time () in
        let tracer = node_tracer node in
        if now >= node.next_renew then
          Telemetry.Tracer.span tracer ~stage:"cluster.lease_renew"
            (fun () -> renew_lease node ~now);
        if reconcile_due then
          Telemetry.Tracer.span tracer ~stage:"cluster.reconcile"
            (fun () -> reconcile t node ~now);
        Controller.step node.ctl;
        node.busy_s <- node.busy_s +. (Sys.time () -. t0)
      end)
    t.nodes;
  Netsim.Network.run t.net;
  sync_dfs_clock t;
  if Netsim.Network.pending_events t.net = 0 then begin
    Netsim.Network.advance_idle t.net tick;
    sync_dfs_clock t
  end

let run_for ?tick t duration =
  let deadline = Netsim.Network.now t.net +. duration in
  while Netsim.Network.now t.net < deadline do
    step ?tick t
  done;
  t.booted <- true

let run_until ?tick ?(timeout = 30.) t pred =
  let deadline = Netsim.Network.now t.net +. timeout in
  let ok = ref (pred ()) in
  while (not !ok) && Netsim.Network.now t.net < deadline do
    step ?tick t;
    ok := pred ()
  done;
  !ok

(* --- failure injection -------------------------------------------------------- *)

let kill t i =
  let node = t.nodes.(i) in
  if node.alive then begin
    node.alive <- false;
    (* The op-log tail that died with the process. *)
    ignore (Dfs.Cluster.drop_origin_pending t.dfs i);
    (* Cut the ghost replica off so nothing keeps feeding it. *)
    Dfs.Cluster.set_partitioned t.dfs i true
  end

(* --- invariants --------------------------------------------------------------- *)

(* Replication quiet modulo permanently dead nodes' stashes. *)
let replication_quiet t =
  let dead_stash =
    Array.fold_left
      (fun acc n ->
        if n.alive then acc else acc + Dfs.Cluster.stashed t.dfs n.index)
      0 t.nodes
  in
  Dfs.Cluster.pending t.dfs - dead_stash = 0

let divergent t = List.filter (fun s -> not (Audit.shard_ok s)) (shards t)

let statuses_connected t =
  Array.for_all
    (fun node ->
      (not node.alive)
      || List.for_all
           (fun (_, s) -> s = Driver.Driver_intf.Connected)
           (Driver.Manager.statuses (Controller.manager node.ctl)))
    t.nodes

let converged t =
  unowned t = [] && replication_quiet t && statuses_connected t
  && divergent t = []
