(* The namespace: E13 path resolution and E14 fsnotify event
   routing, plus the dispatch fan-out the smoke gate measures. *)

open Harness

(* ================================================================== *)
(* E13 — path resolution. Every yanc operation is a path lookup. Each
   directory's (name -> node) table is the dentry cache, as in Linux:
   a lookup probes it once per component with one permission check.
   The workload has the flow-setup path's shape: fresh flow
   directories, each made with mkdir_p, filled with 12 files and read
   back. Minor words per directory repeat exactly from run to run, so
   the smoke gate judges them rather than wall time. *)
(* ================================================================== *)

let e13_files =
  [ "match.in_port"; "match.dl_src"; "match.dl_dst"; "match.dl_type";
    "match.nw_src"; "match.nw_dst"; "match.nw_proto"; "match.tp_dst";
    "action.out"; "priority"; "idle_timeout"; "version" ]

type e13 = {
  e13_errors : int;
  e13_words : float; (* minor words per directory *)
  e13_components : float; (* path components walked per directory *)
  e13_cpu_us : float; (* CPU microseconds per directory *)
}

let e13_flow_dirs ~dirs =
  let fs = Fs.create () in
  let errors = ref 0 in
  let check = function Ok _ -> () | Error _ -> incr errors in
  let c0 = fs_count fs "vfs.components" in
  let t0 = Sys.time () in
  let w0 = Gc.minor_words () in
  for i = 0 to dirs - 1 do
    let dir =
      Vfs.Path.of_string_exn
        (Printf.sprintf "/net/switches/sw%d/flows/g%d" (i mod 80) i)
    in
    check (Fs.mkdir_p fs ~cred dir);
    List.iter
      (fun f -> check (Fs.write_file fs ~cred (Vfs.Path.child dir f) "1"))
      e13_files;
    List.iter
      (fun f -> check (Fs.read_file fs ~cred (Vfs.Path.child dir f)))
      e13_files
  done;
  let words = Gc.minor_words () -. w0 in
  let cpu = Sys.time () -. t0 in
  let per x = x /. float_of_int dirs in
  { e13_errors = !errors; e13_words = per words;
    e13_components = per (float_of_int (fs_count fs "vfs.components" - c0));
    e13_cpu_us = per (cpu *. 1e6) }

let e13_path_resolution () =
  section
    "E13 path resolution: 2,000 fresh flow dirs (mkdir_p + 12 writes + 12 \
     reads each)";
  let r = e13_flow_dirs ~dirs:2000 in
  row
    "  %d errors | %.0f minor words/dir | %.1f components/dir | %.1f CPU \
     us/dir\n"
    r.e13_errors r.e13_words r.e13_components r.e13_cpu_us

(* ================================================================== *)
(* E14 — event routing under fan-out: N watching apps x M switches.
   yanc's application model is event-driven through fsnotify (paper
   5.2), so write->notify dispatch is the control plane's fan-out hot
   path. The routing index (hash + trie) replaces the per-mutation
   linear watch scan; this measures watches visited per mutation and
   wall time, indexed vs the retained linear reference, under a
   flow-mod storm plus port-status churn. *)
(* ================================================================== *)

let e14_sw i ~switches =
  Y.Yanc_fs.switch_name_of_dpid (Int64.of_int ((i mod switches) + 1))

(* N apps, each holding a recursive watch on "its" switch's flow tree,
   an exact watch on the switches directory (switch_watcher-style), and
   a recursive watch on its ports directory. *)
let e14_world ~backend ~apps ~switches () =
  let fs, yfs = fresh_yancfs ~switches () in
  let notifiers =
    List.init apps (fun i ->
        let n = Fsnotify.Notifier.create ~backend fs in
        let sw = e14_sw i ~switches in
        ignore
          (Fsnotify.Notifier.add_watch ~recursive:true n
             (Y.Layout.flows_dir ~root:net_root sw)
             Fsnotify.Notifier.all);
        ignore
          (Fsnotify.Notifier.add_watch n
             (Y.Layout.switches_dir ~root:net_root)
             (Fsnotify.Notifier.mask Fsnotify.Event.[ Created; Deleted ]));
        ignore
          (Fsnotify.Notifier.add_watch ~recursive:true n
             (Y.Layout.ports_dir ~root:net_root sw)
             (Fsnotify.Notifier.mask
                Fsnotify.Event.[ Created; Modified; Attrib ]));
        n)
  in
  fs, yfs, notifiers

(* Flow-mod storm + counter refreshes + port churn; returns how many
   VFS mutations the storm produced (counted by a subscriber, the same
   stream the notifiers route). *)
let e14_storm fs yfs ~switches ~rounds ~drain_every notifiers =
  let muts = ref 0 in
  let hook = Fs.subscribe fs (fun _ -> incr muts) in
  for r = 1 to rounds do
    for s = 1 to switches do
      let sw = Y.Yanc_fs.switch_name_of_dpid (Int64.of_int s) in
      let name = Printf.sprintf "e14r%d" r in
      ignore
        (Y.Yanc_fs.create_flow yfs ~cred ~switch:sw ~name (sample_flow (r + s)));
      ignore
        (Result.bind (Y.Yanc_fs.open_flow yfs ~cred ~switch:sw name) (fun d ->
             Y.Flowdir.write_counters fs ~cred d ~packets:(Int64.of_int r)
               ~bytes:(Int64.of_int (r * 64)) ~duration_s:r));
      ignore
        (Y.Yanc_fs.set_port yfs ~cred:Vfs.Cred.root ~switch:sw
           (OF.Of_types.Port_info.make ~port_no:1 ~hw_addr:(P.Mac.of_int s) ()))
    done;
    if r mod drain_every = 0 then
      List.iter
        (fun n -> ignore (Fsnotify.Notifier.read_events ~max:4096 n))
        notifiers
  done;
  Fs.unsubscribe fs hook;
  List.iter (fun n -> ignore (Fsnotify.Notifier.read_events n)) notifiers;
  !muts

let e14_run ~backend ~apps ~switches ~rounds =
  let fs, yfs, notifiers = e14_world ~backend ~apps ~switches () in
  let v0 = fs_count fs "fsnotify.watches_visited"
  and d0 = fs_count fs "fsnotify.events_dispatched"
  and c0 = fs_count fs "fsnotify.events_coalesced" in
  let muts = e14_storm fs yfs ~switches ~rounds ~drain_every:5 notifiers in
  let visited = fs_count fs "fsnotify.watches_visited" - v0 in
  let dispatched = fs_count fs "fsnotify.events_dispatched" - d0 in
  let coalesced = fs_count fs "fsnotify.events_coalesced" - c0 in
  List.iter Fsnotify.Notifier.close notifiers;
  muts, visited, dispatched, coalesced

let e14_routing () =
  section
    "E14a event routing fan-out: watches visited per mutation, indexed vs \
     linear";
  row "  %4s x %-4s | %6s | %12s | %12s | %7s | %10s | %9s\n" "apps" "sw"
    "muts" "linear v/mut" "indexed v/mut" "ratio" "dispatched" "coalesced";
  List.iter
    (fun (apps, switches) ->
      let muts_l, vis_l, _, _ =
        e14_run ~backend:Fsnotify.Notifier.Linear ~apps ~switches ~rounds:20
      in
      let muts_i, vis_i, disp, coal =
        e14_run ~backend:Fsnotify.Notifier.Indexed ~apps ~switches ~rounds:20
      in
      row "  %4d x %-4d | %6d | %12.1f | %12.1f | %6.1fx | %10d | %9d\n" apps
        switches muts_i
        (float_of_int vis_l /. float_of_int (max 1 muts_l))
        (float_of_int vis_i /. float_of_int (max 1 muts_i))
        (float_of_int vis_l /. float_of_int (max 1 vis_i))
        disp coal)
    [ 8, 8; 32, 16; 128, 32 ]

(* E14b — wall-clock for the same contrast: one committed-version write
   routed to 64 apps' watches. *)
let e14_walltime () =
  section
    "E14b wall time per routed version write: indexed vs linear (64 apps x \
     16 switches)";
  let mk backend =
    let fs, yfs, notifiers = e14_world ~backend ~apps:64 ~switches:16 () in
    for s = 1 to 16 do
      ignore
        (Y.Yanc_fs.create_flow yfs ~cred
           ~switch:(Y.Yanc_fs.switch_name_of_dpid (Int64.of_int s))
           ~name:"f" (sample_flow s))
    done;
    List.iter (fun n -> ignore (Fsnotify.Notifier.read_events n)) notifiers;
    let i = ref 0 in
    fun () ->
      incr i;
      let sw = e14_sw !i ~switches:16 in
      ignore
        (Fs.write_file fs ~cred
           (Vfs.Path.child (Y.Layout.flow ~root:net_root ~switch:sw "f")
              "version")
           (string_of_int !i));
      if !i mod 256 = 0 then
        List.iter
          (fun n -> ignore (Fsnotify.Notifier.read_events n))
          notifiers
  in
  print_benchmarks
    [ test "route_version_write/indexed" (mk Fsnotify.Notifier.Indexed);
      test "route_version_write/linear" (mk Fsnotify.Notifier.Linear) ]

(* Dispatch fan-out: [notifiers] Indexed notifiers on one 256-switch
   file system, notifier i watching switch i's flows/, and flows created
   on switch 1 only. Returns the FS hooks the notifiers added and the
   minor-heap words allocated per [create_flow]: both must stay flat in
   the number of notifiers, since they share one dispatcher. *)
let dispatch_fanout ~notifiers =
  let fs, yfs = fresh_yancfs ~switches:256 () in
  let hooks0 = Fs.hooks fs in
  let _ns =
    List.init notifiers (fun i ->
        let n = Fsnotify.Notifier.create fs in
        ignore
          (Fsnotify.Notifier.add_watch ~recursive:true n
             (Y.Layout.flows_dir ~root:net_root (e14_sw i ~switches:256))
             Fsnotify.Notifier.all);
        n)
  in
  let hooks = Fs.hooks fs - hooks0 in
  let sw = e14_sw 0 ~switches:256 in
  let create i =
    ignore
      (Y.Yanc_fs.create_flow yfs ~cred ~switch:sw
         ~name:(Printf.sprintf "fan%d" i) (sample_flow i))
  in
  for i = 1 to 16 do create i done;
  let flows = 256 in
  let w0 = Gc.minor_words () in
  for i = 17 to 16 + flows do create i done;
  hooks, (Gc.minor_words () -. w0) /. float_of_int flows
