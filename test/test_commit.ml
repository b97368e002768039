(* Commit-pipeline tests: dirty keys flow from file-system mutations
   through the per-switch Commit_queue to hardware — coalescing (N
   writes, one flow_mod), delete-before-add ordering, interleaved
   write/delete/re-add convergence (QCheck, against the committed file
   system as the full-reconcile oracle), and the DFS replication
   stream's last-write-wins discipline. *)

module Y = Yancfs
module N = Netsim
module OF = Openflow
module Fs = Vfs.Fs
module Path = Vfs.Path

let cred = Vfs.Cred.root

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

type rig = {
  net : N.Network.t;
  yfs : Y.Yanc_fs.t;
  mgr : Driver.Manager.t;
  sw : N.Sim_switch.t;
}

let rig () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  let mgr = Driver.Manager.create ~yfs ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  let sw = Option.get (N.Network.switch built.net 1L) in
  { net = built.net; yfs; mgr; sw }

let step ?(now = 1.) r = Driver.Manager.run_control r.mgr ~now

let counter r name =
  Telemetry.Registry.value
    (Telemetry.Registry.counter
       (Telemetry.registry (Y.Yanc_fs.telemetry r.yfs))
       name)

let switch_rules r =
  match N.Sim_switch.table r.sw 0 with
  | Some t ->
    List.sort_uniq compare
      (List.map
         (fun (e : N.Flow_table.entry) -> (e.of_match, e.priority))
         (N.Flow_table.entries t))
  | None -> []

let fs_rules r =
  List.sort_uniq compare
    (List.filter_map
       (fun name ->
         match Y.Yanc_fs.read_flow r.yfs ~cred ~switch:"sw1" name with
         | Ok (f : Y.Flowdir.t) -> Some (f.of_match, f.priority)
         | Error _ -> None)
       (Y.Yanc_fs.flow_names r.yfs ~cred "sw1"))

let flow ?(tp_dst = 80) ?(priority = 100) () =
  { Y.Flowdir.default with
    Y.Flowdir.of_match = { OF.Of_match.any with OF.Of_match.tp_dst = Some tp_dst };
    actions = [ OF.Action.Output (OF.Action.Physical 1) ];
    priority }

let flow_dir r name = Y.Layout.flow ~root:(Y.Yanc_fs.root r.yfs) ~switch:"sw1" name

(* N version bumps to one flow inside one tick cost exactly one
   flow_mod: the marks coalesce on the queue and the flush reads the
   directory's final state. *)
let test_burst_coalesces_to_one_flow_mod () =
  let r = rig () in
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"f" (flow ()));
  step r;
  let adds0 = counter r "driver.commit.adds" in
  let coalesced0 = counter r "driver.commit.coalesced" in
  for i = 1 to 8 do
    match
      Y.Flowdir.update (Y.Yanc_fs.fs r.yfs) ~cred (flow_dir r "f")
        (fun old -> { old with Y.Flowdir.priority = 100 + i })
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "update %d: %s" i e
  done;
  step r;
  Alcotest.(check int) "one flow_mod for eight writes" 1
    (counter r "driver.commit.adds" - adds0);
  Alcotest.(check bool) "marks coalesced" true
    (counter r "driver.commit.coalesced" > coalesced0);
  match switch_rules r with
  | [ (_, priority) ] ->
    Alcotest.(check int) "last write wins" 108 priority
  | l -> Alcotest.failf "expected 1 hardware rule, got %d" (List.length l)

(* Interleaved write/delete/re-add inside one tick converges on the
   last state, including the version chain restarting from scratch. *)
let test_delete_readd_one_tick_converges () =
  let r = rig () in
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"a"
       (flow ~tp_dst:1 ~priority:10 ()));
  step r;
  (* same name, new identity, without letting the driver observe the
     intermediate deletion *)
  ok (Y.Yanc_fs.delete_flow r.yfs ~cred ~switch:"sw1" "a");
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"a"
       (flow ~tp_dst:2 ~priority:7 ()));
  (* plus a flow that never survives the tick *)
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"b"
       (flow ~tp_dst:3 ~priority:9 ()));
  ok (Y.Yanc_fs.delete_flow r.yfs ~cred ~switch:"sw1" "b");
  step r;
  step r;
  Alcotest.(check bool) "hardware == files" true (switch_rules r = fs_rules r);
  match switch_rules r with
  | [ (m, 7) ] ->
    Alcotest.(check (option int)) "re-added identity" (Some 2)
      m.OF.Of_match.tp_dst
  | l -> Alcotest.failf "expected rule [tp_dst=2 pri=7], got %d" (List.length l)

(* A rename observed within one tick is a delete plus an add of the
   same rule; delete-before-add ordering must keep the rule alive. *)
let test_rename_survives_batch () =
  let r = rig () in
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"old"
       (flow ~tp_dst:5 ~priority:20 ()));
  step r;
  ok
    (Fs.rename (Y.Yanc_fs.fs r.yfs) ~cred ~src:(flow_dir r "old")
       ~dst:(flow_dir r "new"));
  step r;
  step r;
  Alcotest.(check bool) "hardware == files" true (switch_rules r = fs_rules r);
  Alcotest.(check int) "exactly one rule" 1 (List.length (switch_rules r))

(* The deleted-then-reused match: flow A changes identity M1→M2 while
   new flow B takes over M1, all in one batch. Batched deletes-first
   ordering must not wipe B's add. *)
let test_match_takeover_in_one_batch () =
  let r = rig () in
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"a"
       (flow ~tp_dst:1 ~priority:10 ()));
  step r;
  (match
     Y.Flowdir.update (Y.Yanc_fs.fs r.yfs) ~cred (flow_dir r "a")
       (fun old ->
         { old with
           Y.Flowdir.of_match =
             { OF.Of_match.any with OF.Of_match.tp_dst = Some 2 } })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" e);
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"b"
       (flow ~tp_dst:1 ~priority:10 ()));
  step r;
  step r;
  Alcotest.(check bool) "hardware == files" true (switch_rules r = fs_rules r);
  Alcotest.(check int) "both rules present" 2 (List.length (switch_rules r))

(* FS write failures surface in driver.fs_errors instead of vanishing:
   make the flow's error file unwritable by replacing it with a
   directory, then commit garbage so the driver tries to write it. *)
let test_fs_errors_surface () =
  let r = rig () in
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"f"
       (flow ~tp_dst:1 ()));
  step r;
  let before = counter r "driver.fs_errors" in
  ok
    (Fs.mkdir (Y.Yanc_fs.fs r.yfs) ~cred
       (Path.child (flow_dir r "f") Y.Layout.error_file));
  ok
    (Fs.write_file (Y.Yanc_fs.fs r.yfs) ~cred
       (Path.child (flow_dir r "f") "priority") "not-a-number");
  ok
    (Fs.write_file (Y.Yanc_fs.fs r.yfs) ~cred
       (Path.child (flow_dir r "f") Y.Layout.version_file) "2");
  step r;
  Alcotest.(check bool) "failure counted" true
    (counter r "driver.fs_errors" > before)

(* QCheck: any interleaving of create/update/delete/step converges —
   hardware ends identical to the committed file system (what a full
   reconcile would produce), with only dirty keys ever flushed. *)
type op = Upsert of int * int * int | Delete of int | Tick

let op_gen =
  QCheck.Gen.(
    frequency
      [ 5,
        map3
          (fun n d p -> Upsert (n, d, p))
          (int_bound 3) (int_range 1 6) (int_range 1 5);
        3, map (fun n -> Delete n) (int_bound 3);
        2, return Tick ])

let pp_op = function
  | Upsert (n, d, p) -> Printf.sprintf "upsert f%d tp_dst=%d pri=%d" n d p
  | Delete n -> Printf.sprintf "delete f%d" n
  | Tick -> "tick"

let arb_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_op l))
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

let apply_op r = function
  | Upsert (n, tp_dst, priority) -> (
    let name = Printf.sprintf "f%d" n in
    let f = flow ~tp_dst ~priority () in
    match Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name f with
    | Ok () -> ()
    | Error Vfs.Errno.EEXIST ->
      (match
         Y.Flowdir.update (Y.Yanc_fs.fs r.yfs) ~cred (flow_dir r name)
           (fun old -> { f with Y.Flowdir.version = old.Y.Flowdir.version })
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "update %s: %s" name e)
    | Error e -> Alcotest.failf "create %s: %s" name (Vfs.Errno.to_string e))
  | Delete n ->
    ignore
      (Y.Yanc_fs.delete_flow r.yfs ~cred ~switch:"sw1"
         (Printf.sprintf "f%d" n))
  | Tick -> step r

let prop_converges_to_fs ops =
  let r = rig () in
  List.iter (apply_op r) ops;
  step r;
  step r;
  let hw = switch_rules r and fs = fs_rules r in
  if hw <> fs then
    QCheck.Test.fail_reportf "diverged: hardware %d rules, files %d rules"
      (List.length hw) (List.length fs);
  true

let test_qcheck_convergence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random op sequences converge" arb_ops
       prop_converges_to_fs)

(* --- the commit queue itself --------------------------------------- *)

let test_queue_semantics () =
  let q = Driver.Commit_queue.create () in
  Alcotest.(check bool) "new queue empty" true (Driver.Commit_queue.is_empty q);
  Alcotest.(check bool) "first mark enqueues" true (Driver.Commit_queue.mark q "a");
  Alcotest.(check bool) "re-mark coalesces" false (Driver.Commit_queue.mark q "a");
  Alcotest.(check bool) "other key enqueues" true (Driver.Commit_queue.mark q "b");
  Alcotest.(check int) "two pending" 2 (Driver.Commit_queue.pending q);
  Alcotest.(check (list string)) "bounded take, oldest first" [ "a" ]
    (Driver.Commit_queue.take ~max:1 q);
  Alcotest.(check (list string)) "rest" [ "b" ] (Driver.Commit_queue.take q);
  Alcotest.(check bool) "drained" true (Driver.Commit_queue.is_empty q);
  Alcotest.(check bool) "no sweep pending" false (Driver.Commit_queue.take_sweep q);
  Driver.Commit_queue.mark_sweep q;
  Alcotest.(check bool) "sweep consumed" true (Driver.Commit_queue.take_sweep q);
  Alcotest.(check bool) "sweep one-shot" false (Driver.Commit_queue.take_sweep q);
  ignore (Driver.Commit_queue.mark q "c");
  Driver.Commit_queue.clear q;
  Alcotest.(check int) "cleared" 0 (Driver.Commit_queue.pending q);
  let s = Driver.Commit_queue.stats q in
  Alcotest.(check int) "marks counted" 4 s.Driver.Commit_queue.marked;
  Alcotest.(check int) "coalesces counted" 1 s.Driver.Commit_queue.coalesced

(* --- DFS: the same dirty-set discipline on the replication stream --- *)

let test_dfs_coalesces_rewrites () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.nfs ~n:2 () in
  let a = Dfs.Cluster.node c 0 in
  let path = Path.of_string_exn "/f" in
  ok (Fs.write_file a ~cred path "v1");
  ok (Fs.write_file a ~cred path "v2");
  ok (Fs.write_file a ~cred path "v3");
  Dfs.Cluster.flush c;
  (* v1's whole-file write makes its queued [Create] redundant; then
     rewrites 2 and 3 each emit truncate+write, and each truncate kills
     the still-queued content ops of the previous rewrite *)
  Alcotest.(check (option (float 0.))) "superseded ops never replicated"
    (Some 4.)
    (Telemetry.Registry.find
       (Telemetry.Registry.snapshot (Fs.registry a))
       "dfs.ops_coalesced");
  (match Fs.read_file (Dfs.Cluster.node c 1) ~cred path with
  | Ok v -> Alcotest.(check string) "replica has final content" "v3" v
  | Error e -> Alcotest.failf "replica read: %s" (Vfs.Errno.to_string e));
  Alcotest.(check bool) "converged" true (Dfs.Cluster.converged c)

let test_dfs_structural_boundary_blocks_coalescing () =
  (* content moved by a rename must not be killed by a later write to
     the old path *)
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.nfs ~n:2 () in
  let a = Dfs.Cluster.node c 0 in
  let src = Path.of_string_exn "/a" and dst = Path.of_string_exn "/b" in
  ok (Fs.write_file a ~cred src "moved");
  ok (Fs.rename a ~cred ~src ~dst);
  ok (Fs.write_file a ~cred src "fresh");
  Dfs.Cluster.flush c;
  let b = Dfs.Cluster.node c 1 in
  (match Fs.read_file b ~cred dst with
  | Ok v -> Alcotest.(check string) "renamed content intact" "moved" v
  | Error e -> Alcotest.failf "replica /b: %s" (Vfs.Errno.to_string e));
  match Fs.read_file b ~cred src with
  | Ok v -> Alcotest.(check string) "new content at old path" "fresh" v
  | Error e -> Alcotest.failf "replica /a: %s" (Vfs.Errno.to_string e)

let test_dfs_replica_driver_commits_o_dirty () =
  (* A flow written on node A reaches hardware through node B's driver
     via replicated (re-emitted) events — per-key commits, no sweep. *)
  let built = N.Topo_gen.linear ~hosts_per_switch:1 1 in
  let fs_a = Fs.create () and fs_b = Fs.create () in
  let yfs_a = Y.Yanc_fs.create fs_a in
  let yfs_b = Y.Yanc_fs.create fs_b in
  let _cluster =
    Dfs.Cluster.of_replicas ~consistency:Dfs.Consistency.Sequential
      [ fs_a; fs_b ]
  in
  let mgr = Driver.Manager.create ~yfs:yfs_b ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  let reg = Telemetry.registry (Y.Yanc_fs.telemetry yfs_b) in
  let value n = Telemetry.Registry.value (Telemetry.Registry.counter reg n) in
  let sweeps0 = value "driver.commit.sweeps" in
  let adds0 = value "driver.commit.adds" in
  ok
    (Y.Yanc_fs.create_flow yfs_a ~cred ~switch:"sw1" ~name:"remote"
       (flow ~tp_dst:9 ~priority:5 ()));
  Driver.Manager.run_control mgr ~now:1.;
  Alcotest.(check int) "one add through the queue path" 1
    (value "driver.commit.adds" - adds0);
  Alcotest.(check int) "no sweep needed" 0 (value "driver.commit.sweeps" - sweeps0);
  let sw = Option.get (N.Network.switch built.net 1L) in
  let rules =
    match N.Sim_switch.table sw 0 with
    | Some t -> N.Flow_table.entries t
    | None -> []
  in
  Alcotest.(check int) "rule on hardware" 1 (List.length rules)

let () =
  Alcotest.run "commit"
    [ ( "coalescing",
        [ Alcotest.test_case "burst -> one flow_mod" `Quick
            test_burst_coalesces_to_one_flow_mod;
          Alcotest.test_case "delete/re-add converges" `Quick
            test_delete_readd_one_tick_converges;
          Alcotest.test_case "rename survives batch" `Quick
            test_rename_survives_batch;
          Alcotest.test_case "match takeover in one batch" `Quick
            test_match_takeover_in_one_batch;
          test_qcheck_convergence ] );
      ( "queue",
        [ Alcotest.test_case "mark/take/sweep semantics" `Quick
            test_queue_semantics ] );
      ( "errors",
        [ Alcotest.test_case "fs write failures counted" `Quick
            test_fs_errors_surface ] );
      ( "dfs",
        [ Alcotest.test_case "rewrites coalesce" `Quick
            test_dfs_coalesces_rewrites;
          Alcotest.test_case "structural boundary" `Quick
            test_dfs_structural_boundary_blocks_coalescing;
          Alcotest.test_case "replica driver O(dirty)" `Quick
            test_dfs_replica_driver_commits_o_dirty ] ) ]
