(* Tests for the yanc file system semantics (paper §3). *)

module Y = Yancfs
module Fs = Vfs.Fs
module Path = Vfs.Path
module OF = Openflow

let cred = Vfs.Cred.root

let p = Path.of_string_exn

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

let ok_s = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" e

let setup () =
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  fs, yfs

let net = Y.Layout.default_root

(* --- layout (Figure 2/3) ------------------------------------------------------ *)

let test_layout_paths () =
  Alcotest.(check string) "switch" "/net/switches/sw1"
    (Path.to_string (Y.Layout.switch ~root:net "sw1"));
  Alcotest.(check string) "flow attr" "/net/switches/sw1/flows/arp/priority"
    (Path.to_string (Y.Layout.flow_attr ~root:net ~switch:"sw1" ~flow:"arp" "priority"));
  Alcotest.(check string) "port" "/net/switches/sw1/ports/port_2"
    (Path.to_string (Y.Layout.port ~root:net ~switch:"sw1" 2));
  Alcotest.(check string) "nested view root" "/net/views/v1/switches/sw1"
    (Path.to_string
       (Y.Layout.switch ~root:(Y.Layout.view ~root:net "v1") "sw1"));
  Alcotest.(check (option int)) "port name parse" (Some 12)
    (Y.Layout.port_no_of_name "port_12");
  Alcotest.(check (option int)) "port name reject" None
    (Y.Layout.port_no_of_name "eth0")

let test_top_level_structure () =
  let _, yfs = setup () in
  let fs = Y.Yanc_fs.fs yfs in
  Alcotest.(check (list string)) "figure 2 top level" [ "hosts"; "switches"; "views" ]
    (ok (Fs.readdir fs ~cred net))

(* --- schema classification ------------------------------------------------------ *)

let test_classify () =
  let cases =
    [ "/net", "root";
      "/net/hosts", "hosts_dir";
      "/net/hosts/h1", "host";
      "/net/hosts/h1/mac", "host_attr";
      "/net/switches", "switches_dir";
      "/net/switches/sw1", "switch";
      "/net/switches/sw1/id", "switch_attr";
      "/net/switches/sw1/counters", "switch_counters";
      "/net/switches/sw1/flows", "flows_dir";
      "/net/switches/sw1/flows/f1", "flow";
      "/net/switches/sw1/flows/f1/match.tp_dst", "flow_attr";
      "/net/switches/sw1/ports", "ports_dir";
      "/net/switches/sw1/ports/port_1", "port";
      "/net/switches/sw1/ports/port_1/peer", "port_attr";
      "/net/switches/sw1/events", "events_dir";
      "/net/switches/sw1/events/routerd", "event_buffer";
      "/net/switches/sw1/events/routerd/4", "event";
      "/net/switches/sw1/events/routerd/4/data", "event_attr";
      "/net/views", "views_dir";
      "/net/views/tenant", "root";
      "/net/views/tenant/switches/sw1", "switch";
      "/net/views/a/views/b/switches/s/flows/f", "flow";
      "/elsewhere", "not_yanc" ]
  in
  List.iter
    (fun (path, expected) ->
      Alcotest.(check string) path expected
        (Y.Schema.classify ~root:net (p path)).Y.Schema.kind)
    cases

(* --- semantic mkdir (paper §3.1) ---------------------------------------------------- *)

let test_semantic_mkdir_view () =
  let fs, _ = setup () in
  (* "mkdir views/new_view will create the directory new_view, but also
     the hosts, switches, and views subdirectories." *)
  ok (Fs.mkdir fs ~cred (p "/net/views/new_view"));
  Alcotest.(check (list string)) "auto children" [ "hosts"; "switches"; "views" ]
    (ok (Fs.readdir fs ~cred (p "/net/views/new_view")))

let test_semantic_mkdir_switch () =
  let fs, _ = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw9"));
  Alcotest.(check (list string)) "switch children"
    [ "counters"; "events"; "flows"; "packet_out"; "ports" ]
    (ok (Fs.readdir fs ~cred (p "/net/switches/sw9")))

let test_semantic_mkdir_flow_and_port () =
  let fs, _ = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw9"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw9/flows/f1"));
  Alcotest.(check (list string)) "flow gets counters" [ "counters" ]
    (ok (Fs.readdir fs ~cred (p "/net/switches/sw9/flows/f1")));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw9/ports/port_1"));
  Alcotest.(check (list string)) "port gets counters" [ "counters" ]
    (ok (Fs.readdir fs ~cred (p "/net/switches/sw9/ports/port_1")))

let test_semantic_mkdir_ownership () =
  let fs, _ = setup () in
  let tenant = Vfs.Cred.make ~uid:500 ~gid:500 () in
  ok (Fs.chmod fs ~cred (p "/net/views") 0o777);
  ok (Fs.mkdir fs ~cred:tenant (p "/net/views/mine"));
  (* auto-created children belong to the tenant, so it can use them *)
  ok (Fs.mkdir fs ~cred:tenant (p "/net/views/mine/switches/sw1"));
  ok
    (Fs.write_file fs ~cred:tenant
       (let fdir = p "/net/views/mine/switches/sw1/flows/f" in ignore (Fs.mkdir fs ~cred:tenant fdir); Path.child fdir "priority")
       "1")

let test_recursive_switch_rmdir () =
  let fs, _ = setup () in
  (* "the rmdir() call for switches is automatically recursive" *)
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1/flows/f1"));
  ok (Fs.write_file fs ~cred (p "/net/switches/sw1/flows/f1/priority") "1");
  ok (Fs.rmdir fs ~cred (p "/net/switches/sw1"));
  Alcotest.(check bool) "switch gone" false
    (Fs.exists fs ~cred (p "/net/switches/sw1"));
  (* but the switches/ container is protected as usual *)
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw2"));
  Alcotest.(check bool) "container not recursive" true
    (Fs.rmdir fs ~cred (p "/net/switches") = Error Vfs.Errno.ENOTEMPTY)

let test_peer_symlink_policy () =
  let fs, _ = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw2"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1/ports/port_1"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw2/ports/port_1"));
  (* peer -> a port: fine *)
  ok
    (Fs.symlink fs ~cred ~target:"/net/switches/sw2/ports/port_1"
       (p "/net/switches/sw1/ports/port_1/peer"));
  (* peer -> not a port: EINVAL ("it is an error to point this symbolic
     link at anything other than a port") *)
  Alcotest.(check bool) "peer to switch rejected" true
    (Fs.symlink fs ~cred ~target:"/net/switches/sw2"
       (p "/net/switches/sw2/ports/port_1/peer")
    = Error Vfs.Errno.EINVAL);
  (* other symlinks unconstrained *)
  ok (Fs.symlink fs ~cred ~target:"/anything" (p "/net/hosts/h1"))

(* --- port admin file (paper §3.1 example) -------------------------------------------- *)

let test_port_down_file () =
  let _, yfs = setup () in
  let fs = Y.Yanc_fs.fs yfs in
  let info =
    OF.Of_types.Port_info.make ~port_no:2 ~hw_addr:(Packet.Mac.of_int 0x020000000002) ()
  in
  ok (Y.Yanc_fs.add_switch yfs ~cred:Vfs.Cred.root ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
        ~n_buffers:256 ~n_tables:1 ~capabilities:[] ~actions:[]);
  ok (Y.Yanc_fs.set_port yfs ~cred:Vfs.Cred.root ~switch:"sw1" info);
  (* echo 1 > port_2/config.port_down *)
  ok
    (Fs.write_file fs ~cred
       (p "/net/switches/sw1/ports/port_2/config.port_down") "1");
  let back = ok (Y.Yanc_fs.read_port yfs ~cred ~switch:"sw1" 2) in
  Alcotest.(check bool) "admin down read back" true back.OF.Of_types.Port_info.admin_down;
  (* the driver refreshing the port must NOT clobber the admin setting *)
  ok (Y.Yanc_fs.set_port yfs ~cred:Vfs.Cred.root ~switch:"sw1" info);
  let back2 = ok (Y.Yanc_fs.read_port yfs ~cred ~switch:"sw1" 2) in
  Alcotest.(check bool) "admin setting preserved" true
    back2.OF.Of_types.Port_info.admin_down

(* --- flow directories (paper §3.4) ----------------------------------------------------- *)

let sample_flow =
  { Y.Flowdir.default with
    Y.Flowdir.of_match =
      { OF.Of_match.any with
        OF.Of_match.dl_type = Some 0x0800;
        nw_proto = Some 6;
        tp_dst = Some 22 };
    actions =
      [ OF.Action.Set_vlan 7; OF.Action.Output (OF.Action.Physical 3) ];
    priority = 4000;
    idle_timeout = 60;
    cookie = 0xdeadL }

let test_flowdir_roundtrip () =
  let fs, yfs = setup () in
  ok (Y.Yanc_fs.add_switch yfs ~cred:Vfs.Cred.root ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
        ~n_buffers:256 ~n_tables:1 ~capabilities:[] ~actions:[]);
  ok (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"ssh" sample_flow);
  let dir = Y.Layout.flow ~root:net ~switch:"sw1" "ssh" in
  (* files exist, named as in Figure 3 *)
  Alcotest.(check string) "match file content" "22"
    (String.trim (ok (Fs.read_file fs ~cred (Path.child dir "match.tp_dst"))));
  Alcotest.(check string) "action file" "3"
    (String.trim (ok (Fs.read_file fs ~cred (Path.child dir "action.1.out"))));
  Alcotest.(check string) "version committed" "1"
    (String.trim (ok (Fs.read_file fs ~cred (Path.child dir "version"))));
  let back = ok_s (Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw1" "ssh") in
  Alcotest.(check bool) "match equal" true
    (OF.Of_match.equal sample_flow.of_match back.Y.Flowdir.of_match);
  Alcotest.(check bool) "actions equal" true
    (List.for_all2 OF.Action.equal sample_flow.actions back.Y.Flowdir.actions);
  Alcotest.(check int) "priority" 4000 back.Y.Flowdir.priority;
  Alcotest.(check int) "version" 1 back.Y.Flowdir.version

let test_flowdir_wildcards () =
  (* "absence of a match file implies a wildcard" *)
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1/flows/all"));
  ok (Fs.write_file fs ~cred (p "/net/switches/sw1/flows/all/version") "1");
  let back = ok_s (Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw1" "all") in
  Alcotest.(check bool) "fully wildcarded" true
    (OF.Of_match.equal OF.Of_match.any back.Y.Flowdir.of_match);
  Alcotest.(check int) "default priority" 0x8000 back.Y.Flowdir.priority

let test_flowdir_rejects_garbage () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1/flows/bad"));
  ok (Fs.write_file fs ~cred (p "/net/switches/sw1/flows/bad/match.nw_src") "not-an-ip");
  (match Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw1" "bad" with
  | Error msg ->
    Alcotest.(check bool) "error names the field" true
      (String.length msg > 0 && String.sub msg 0 6 = "nw_src")
  | Ok _ -> Alcotest.fail "garbage accepted");
  ok (Fs.write_file fs ~cred (p "/net/switches/sw1/flows/bad/mystery_file") "?");
  match Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw1" "bad" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown file accepted"

let test_flowdir_version_readback () =
  let fs, _yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let dir = Y.Layout.flow ~root:net ~switch:"sw1" "f" in
  ok (Fs.mkdir fs ~cred dir);
  let d = ok (Fs.opendir fs ~cred dir) in
  Alcotest.(check (option int)) "no version yet" None
    (ok (Y.Flowdir.read_version fs ~cred d));
  ok (Y.Flowdir.write fs ~cred d sample_flow);
  Alcotest.(check (option int)) "bumped" (Some 1) (ok (Y.Flowdir.read_version fs ~cred d));
  ok (Y.Flowdir.write fs ~cred d { sample_flow with Y.Flowdir.version = 1 });
  Alcotest.(check (option int)) "bumped again" (Some 2)
    (ok (Y.Flowdir.read_version fs ~cred d))

let test_flowdir_rewrite_removes_stale_fields () =
  let fs, yfs = setup () in
  ignore yfs;
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let dir = Y.Layout.flow ~root:net ~switch:"sw1" "f" in
  ok (Fs.mkdir fs ~cred dir);
  let d = ok (Fs.opendir fs ~cred dir) in
  ok (Y.Flowdir.write fs ~cred d sample_flow);
  (* rewrite with a narrower match: the old tp_dst file must go away *)
  let broader =
    { sample_flow with
      Y.Flowdir.of_match = { OF.Of_match.any with OF.Of_match.dl_type = Some 0x0806 };
      actions = [];
      version = 1 }
  in
  ignore (ok_s (Y.Flowdir.update fs ~cred d (fun _ -> broader)));
  Alcotest.(check bool) "stale match file gone" false
    (Fs.exists fs ~cred (Path.child dir "match.tp_dst"));
  Alcotest.(check bool) "stale action gone" false
    (Fs.exists fs ~cred (Path.child dir "action.1.out"))

let test_flow_counters_and_error () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let dir = Y.Layout.flow ~root:net ~switch:"sw1" "f" in
  ok (Fs.mkdir fs ~cred dir);
  let d = ok (Fs.opendir fs ~cred dir) in
  ok (Y.Flowdir.write_counters fs ~cred d ~packets:10L ~bytes:640L ~duration_s:5);
  Alcotest.(check string) "packets file" "10"
    (String.trim (ok (Fs.read_file fs ~cred (Path.child (Path.child dir "counters") "packets"))));
  Alcotest.(check (option (pair int64 int64))) "read back" (Some (10L, 640L))
    (Y.Flowdir.read_counters fs ~cred d);
  Alcotest.(check (option (pair int64 int64))) "not yet reported" None
    (Y.Flowdir.read_counters ~flow:"g" fs ~cred
       (ok (Y.Yanc_fs.open_flows yfs ~cred "sw1")));
  ok (Y.Flowdir.set_error fs ~cred d (Some "boom"));
  Alcotest.(check string) "error file" "boom"
    (ok (Fs.read_file fs ~cred (Path.child dir "error")));
  ok (Y.Flowdir.set_error fs ~cred d None);
  Alcotest.(check bool) "error cleared" false
    (Fs.exists fs ~cred (Path.child dir "error"));
  ok (Y.Flowdir.set_error fs ~cred d None)

(* upsert_flow over an existing flow continues its version chain, and
   the driver reprograms the rule from the committed update. *)
let test_upsert_flow () =
  let built = Netsim.Topo_gen.linear ~hosts_per_switch:2 1 in
  let fs, yfs = setup () in
  let mgr = Driver.Manager.create ~yfs ~net:built.Netsim.Topo_gen.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  let sw = Option.get (Netsim.Network.switch built.Netsim.Topo_gen.net 1L) in
  let out port =
    { Y.Flowdir.default with
      Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical port) ];
      priority = 10 }
  in
  (* hardware holds exactly the one committed rule, and that rule's
     actions are [(out port).actions] *)
  let installed port =
    let r = Yanc.Audit.switch yfs sw ~now:1. ~desired:None in
    Yanc.Audit.ok r && r.invalid = [] && r.hw_rules = 1
    && Result.map (fun (f : Y.Flowdir.t) -> f.actions)
         (Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw1" "f")
       = Ok (out port).actions
  in
  let version () =
    ok (Y.Flowdir.read_version fs ~cred (ok (Y.Yanc_fs.open_flow yfs ~cred ~switch:"sw1" "f")))
  in
  ok_s (Y.Yanc_fs.upsert_flow yfs ~cred ~switch:"sw1" ~name:"f" (out 1));
  Driver.Manager.run_control mgr ~now:1.;
  let created = Option.get (version ()) in
  Alcotest.(check bool) "created rule installed" true (installed 1);
  ok_s (Y.Yanc_fs.upsert_flow yfs ~cred ~switch:"sw1" ~name:"f" (out 2));
  Alcotest.(check (option int)) "version continues from the old value"
    (Some (created + 1)) (version ());
  Driver.Manager.run_control mgr ~now:2.;
  Alcotest.(check bool) "update installed in place of the old rule" true
    (installed 2)

(* --- packet-in fast path (ring) --------------------------------------------------- *)

let ring ?capacity () =
  Y.Pktin.create ?capacity ~telemetry:(Telemetry.create ()) ()

let push ?(switch = "sw1") ?(data = "bytes") r =
  Y.Pktin.publish r ~switch ~in_port:2 ~reason:Openflow.Of_types.No_match
    ~buffer_id:None ~total_len:(String.length data) ~data ~at:1.5

let test_pktin_roundtrip () =
  let r = ring () in
  let c = Y.Pktin.subscribe r in
  ignore (push ~data:"one" r);
  ignore (push ~data:"two" r);
  Alcotest.(check int) "pending" 2 (Y.Pktin.pending r c);
  let seen = ref [] in
  let n =
    Y.Pktin.drain r c ~max:10 (fun rec_ ->
        seen := (rec_.Y.Pktin.seq, rec_.Y.Pktin.switch, rec_.Y.Pktin.data,
                 rec_.Y.Pktin.in_port, rec_.Y.Pktin.at) :: !seen)
  in
  Alcotest.(check int) "drained both" 2 n;
  (match List.rev !seen with
  | [ (s0, sw0, d0, p0, at0); (s1, _, d1, _, _) ] ->
    Alcotest.(check string) "oldest first" "one" d0;
    Alcotest.(check string) "then next" "two" d1;
    Alcotest.(check string) "switch" "sw1" sw0;
    Alcotest.(check int) "in_port" 2 p0;
    Alcotest.(check (float 0.0001)) "publish time" 1.5 at0;
    Alcotest.(check int) "sequences increase" (s0 + 1) s1;
    Alcotest.(check string) "trace key shape"
      (Printf.sprintf "pktin:%d" s0)
      (Y.Pktin.trace_key s0)
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  Alcotest.(check int) "nothing pending after drain" 0 (Y.Pktin.pending r c);
  (* a bounded batch drains at most [max] *)
  for _ = 1 to 5 do ignore (push r) done;
  Alcotest.(check int) "batch bound respected" 3
    (Y.Pktin.drain r c ~max:3 (fun _ -> ()))

let test_pktin_no_subscribers () =
  let r = ring () in
  ignore (push r);
  ignore (push r);
  Alcotest.(check int) "counted as published" 2 (Y.Pktin.published r);
  Alcotest.(check int) "counted as dropped" 2 (Y.Pktin.dropped r);
  Alcotest.(check int) "ring untouched: no records allocated" 0
    (Netsim.Pool.allocated (Y.Pktin.pool r))

let test_pktin_two_consumers_recycle () =
  let r = ring () in
  let c1 = Y.Pktin.subscribe r in
  let c2 = Y.Pktin.subscribe r in
  ignore (push ~data:"x" r);
  Alcotest.(check int) "a drains" 1 (Y.Pktin.drain r c1 ~max:8 (fun _ -> ()));
  (* the record recycles only once every consumer has passed it *)
  Alcotest.(check int) "not recycled while b lags" 0
    (Netsim.Pool.free (Y.Pktin.pool r));
  Alcotest.(check int) "b drains" 1 (Y.Pktin.drain r c2 ~max:8 (fun _ -> ()));
  Alcotest.(check int) "recycled once both passed" 1
    (Netsim.Pool.free (Y.Pktin.pool r));
  (* unsubscribing a lagging consumer must not wedge the pool *)
  ignore (push r);
  Y.Pktin.unsubscribe r c2;
  ignore (Y.Pktin.drain r c1 ~max:8 (fun _ -> ()));
  ignore (push r);
  ignore (Y.Pktin.drain r c1 ~max:8 (fun _ -> ()));
  Alcotest.(check bool) "pool keeps cycling" true
    (Netsim.Pool.free (Y.Pktin.pool r) >= 1)

let test_pktin_overflow () =
  let r = ring ~capacity:4 () in
  let slow = Y.Pktin.subscribe r in
  for i = 1 to 10 do ignore (push ~data:(string_of_int i) r) done;
  Alcotest.(check int) "lagging consumer lost the oldest" 6
    (Y.Pktin.overruns slow);
  Alcotest.(check int) "only a ringful pending" 4 (Y.Pktin.pending r slow);
  let seen = ref [] in
  ignore (Y.Pktin.drain r slow ~max:10 (fun rec_ ->
      seen := rec_.Y.Pktin.data :: !seen));
  Alcotest.(check (list string)) "survivors are the newest, in order"
    [ "7"; "8"; "9"; "10" ] (List.rev !seen)

let test_pktin_pool_steady_state () =
  let r = ring () in
  let c = Y.Pktin.subscribe r in
  (* warm: a burst allocates its working set *)
  for _ = 1 to 8 do ignore (push r) done;
  ignore (Y.Pktin.drain r c ~max:16 (fun _ -> ()));
  let pool = Y.Pktin.pool r in
  let warm = Netsim.Pool.allocated pool in
  (* steady: publish/drain cycles no larger than the warm burst *)
  for _ = 1 to 50 do
    for _ = 1 to 8 do ignore (push r) done;
    ignore (Y.Pktin.drain r c ~max:16 (fun _ -> ()))
  done;
  Alcotest.(check int) "steady state allocates nothing" warm
    (Netsim.Pool.allocated pool);
  Alcotest.(check bool) "acquires served by reuse" true
    (Netsim.Pool.reused pool >= 400)

(* References, not copies: the drained record carries the publisher's
   exact string. *)
let test_pktin_zero_copy () =
  let r = ring () in
  let c = Y.Pktin.subscribe r in
  let frame = String.init 64 Char.chr in
  ignore (push ~data:frame r);
  let same = ref false in
  ignore (Y.Pktin.drain r c ~max:1 (fun rec_ -> same := rec_.Y.Pktin.data == frame));
  Alcotest.(check bool) "same physical string" true !same

(* A random publish/drain script against a reference queue: a full ring
   drops its oldest event and the consumer counts it as an overrun. *)
let prop_pktin_matches_queue =
  QCheck.Test.make ~name:"random script vs reference queue" ~count:200
    QCheck.(list (pair bool (int_range 1 5)))
    (fun script ->
      let cap = 4 in
      let r = ring ~capacity:cap () in
      let c = Y.Pktin.subscribe r in
      let reference = Queue.create () in
      let lost = ref 0 in
      List.iteri
        (fun i (publish, batch) ->
          if publish then begin
            ignore (push ~data:(string_of_int i) r);
            Queue.push (string_of_int i) reference;
            if Queue.length reference > cap then begin
              ignore (Queue.pop reference);
              incr lost
            end
          end
          else begin
            let seen = ref [] in
            ignore
              (Y.Pktin.drain r c ~max:batch (fun rec_ ->
                   seen := rec_.Y.Pktin.data :: !seen));
            let expected =
              List.init (min batch (Queue.length reference)) (fun _ ->
                  Queue.pop reference)
            in
            if List.rev !seen <> expected then
              QCheck.Test.fail_reportf "step %d: drained %s, expected %s" i
                (String.concat "," (List.rev !seen))
                (String.concat "," expected)
          end)
        script;
      Y.Pktin.pending r c = Queue.length reference
      && Y.Pktin.overruns c = !lost)

(* --- event buffers (paper §3.5) --------------------------------------------------------- *)

let rmdir_failed e = Alcotest.failf "event rmdir: %s" (Vfs.Errno.to_string e)

let publish yfs ~switch data =
  Y.Eventdir.publish yfs ~cred:Vfs.Cred.root ~switch ~in_port:3
    ~reason:Openflow.Of_types.No_match ~buffer_id:(Some 9l)
    ~total_len:(String.length data) ~data

(* The names in [app]'s buffer on sw1. *)
let buffered fs app =
  ok (Fs.readdir fs ~cred (Y.Layout.event_buffer ~root:net ~switch:"sw1" app))

let test_eventdir_fanout () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  (* two interested applications, one uninterested switch *)
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"router");
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"monitor");
  Alcotest.(check (result int reject)) "delivered to both" (Ok 2)
    (publish yfs ~switch:"sw1" "frame-bytes");
  let consume app =
    ok (Y.Eventdir.consume fs ~cred ~root:net ~switch:"sw1" ~app ~on_error:rmdir_failed)
  in
  let router_events = consume "router" in
  Alcotest.(check int) "router sees one" 1 (List.length router_events);
  let ev = List.hd router_events in
  Alcotest.(check int) "in_port" 3 ev.Y.Eventdir.in_port;
  Alcotest.(check (option int32)) "buffer id" (Some 9l) ev.Y.Eventdir.buffer_id;
  Alcotest.(check string) "data" "frame-bytes" ev.Y.Eventdir.data;
  (* consuming is private: router's consume leaves monitor's copy *)
  Alcotest.(check int) "router drained" 0 (List.length (buffered fs "router"));
  Alcotest.(check int) "monitor unaffected" 1 (List.length (buffered fs "monitor"));
  Alcotest.(check int) "monitor sees one" 1 (List.length (consume "monitor"))

let test_eventdir_ordering () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"a");
  ignore (publish yfs ~switch:"sw1" "first");
  ignore (publish yfs ~switch:"sw1" "second");
  ignore (publish yfs ~switch:"sw1" "third");
  let datas =
    List.map
      (fun e -> e.Y.Eventdir.data)
      (ok
         (Y.Eventdir.consume fs ~cred ~root:net ~switch:"sw1" ~app:"a"
            ~on_error:rmdir_failed))
  in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] datas

let test_eventdir_no_subscribers () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  Alcotest.(check (result int reject)) "published nowhere" (Ok 0)
    (publish yfs ~switch:"sw1" "x")

(* A non-root subscriber (here: on a switch whose events/ it owns)
   removes what it consumed, so each event is delivered exactly once. *)
let test_eventdir_non_root_subscriber () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.chown fs ~cred (p "/net/switches/sw1/events") ~uid:1000 ~gid:1000);
  let app = Vfs.Cred.make ~uid:1000 ~gid:1000 () in
  ok (Y.Eventdir.subscribe fs ~cred:app ~root:net ~switch:"sw1" ~app:"tenant");
  Alcotest.(check (result int reject)) "published" (Ok 1) (publish yfs ~switch:"sw1" "x");
  let drain () =
    List.length
      (ok
         (Y.Eventdir.consume fs ~cred:app ~root:net ~switch:"sw1" ~app:"tenant"
            ~on_error:rmdir_failed))
  in
  let first = drain () in
  let second = drain () in
  let third = drain () in
  Alcotest.(check (list int)) "delivered once" [ 1; 0; 0 ] [ first; second; third ]

(* A drain whose removal fails counts it and delivers nothing; the event
   waits for the next drain. *)
let test_eventdir_failed_removal () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let events = Apps.App_intf.Packet_in.create yfs ~cred ~app:"a" in
  let errors = Apps.App_intf.fs_errors yfs in
  let delivered = ref 0 in
  let drain () =
    Apps.App_intf.Packet_in.drain events ~switch:"sw1" (fun _ -> incr delivered)
  in
  drain ();
  ignore (ok (publish yfs ~switch:"sw1" "x"));
  Fs.set_readonly fs true;
  drain ();
  Alcotest.(check (pair int int)) "counted, not delivered" (1, 0)
    (Telemetry.Registry.value errors, !delivered);
  Fs.set_readonly fs false;
  drain ();
  drain ();
  Alcotest.(check (pair int int)) "delivered once after" (1, 1)
    (Telemetry.Registry.value errors, !delivered)

(* An event the drain cannot parse is removed and counted once: it is
   neither delivered nor read again by later drains. *)
let test_eventdir_unparseable () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let events = Apps.App_intf.Packet_in.create yfs ~cred ~app:"a" in
  let errors = Apps.App_intf.fs_errors yfs in
  let delivered = ref 0 in
  let drain () =
    Apps.App_intf.Packet_in.drain events ~switch:"sw1" (fun _ -> incr delivered)
  in
  drain ();
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1/events/a/7"));
  ok (Fs.write_file fs ~cred (p "/net/switches/sw1/events/a/7/in_port") "bogus");
  drain ();
  Alcotest.(check (list string)) "removed" [] (buffered fs "a");
  drain ();
  drain ();
  Alcotest.(check (pair int int)) "counted once, not delivered" (1, 0)
    (Telemetry.Registry.value errors, !delivered);
  ignore (ok (publish yfs ~switch:"sw1" "x"));
  drain ();
  Alcotest.(check (pair int int)) "the next event delivered" (1, 1)
    (Telemetry.Registry.value errors, !delivered)

(* A buffer its non-root owner cannot list (root took its permissions
   away) is counted on every drain, not read as empty; once listable
   again, its event is delivered. *)
let test_eventdir_unlistable_buffer () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.chown fs ~cred (p "/net/switches/sw1/events") ~uid:1000 ~gid:1000);
  let app = Vfs.Cred.make ~uid:1000 ~gid:1000 () in
  let events = Apps.App_intf.Packet_in.create yfs ~cred:app ~app:"tenant" in
  let errors = Apps.App_intf.fs_errors yfs in
  let delivered = ref 0 in
  let drain () =
    Apps.App_intf.Packet_in.drain events ~switch:"sw1" (fun _ -> incr delivered)
  in
  drain ();
  ignore (ok (publish yfs ~switch:"sw1" "x"));
  let buffer = p "/net/switches/sw1/events/tenant" in
  ok (Fs.chmod fs ~cred buffer 0);
  drain ();
  drain ();
  Alcotest.(check (pair int int)) "counted each drain, nothing delivered" (2, 0)
    (Telemetry.Registry.value errors, !delivered);
  ok (Fs.chmod fs ~cred buffer 0o755);
  drain ();
  Alcotest.(check (pair int int)) "delivered once listable" (2, 1)
    (Telemetry.Registry.value errors, !delivered)

(* A buffer publish cannot write is reported, and the others are still
   written. *)
let test_eventdir_unwritable_buffer () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.create_file fs ~cred (p "/net/switches/sw1/events/broken"));
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"ok");
  Alcotest.(check bool) "reported" true
    (publish yfs ~switch:"sw1" "x" = Error Vfs.Errno.ENOTDIR);
  Alcotest.(check int) "others written" 1 (List.length (buffered fs "ok"))

(* A symlink a subscriber plants in events/ is no buffer: publish
   creates nothing where it points and gives nothing away. *)
let test_eventdir_symlink_not_buffer () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw2"));
  ok (Fs.chown fs ~cred (p "/net/switches/sw1/events") ~uid:1000 ~gid:1000);
  let app = Vfs.Cred.make ~uid:1000 ~gid:1000 () in
  ok (Y.Eventdir.subscribe fs ~cred:app ~root:net ~switch:"sw1" ~app:"tenant");
  ok
    (Fs.symlink fs ~cred:app ~target:"/net/switches/sw2/flows"
       (p "/net/switches/sw1/events/x"));
  Alcotest.(check (result int reject)) "only the real buffer" (Ok 1)
    (publish yfs ~switch:"sw1" "x");
  Alcotest.(check (result (list string) reject)) "nothing behind the link" (Ok [])
    (Fs.readdir fs ~cred (p "/net/switches/sw2/flows"))

(* --- packet-out spool -------------------------------------------------------------------- *)

let test_outdir_roundtrip () =
  let fs, yfs = setup () in
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let seq1 =
    ok
      (Y.Outdir.submit yfs ~cred ~switch:"sw1" ~in_port:2
         ~actions:[ OF.Action.Output OF.Action.Flood ] ~data:"bytes" ())
  in
  let _seq2 =
    ok
      (Y.Outdir.submit yfs ~cred ~switch:"sw1" ~buffer_id:5l
         ~actions:[ OF.Action.Output (OF.Action.Physical 1) ] ~data:"" ())
  in
  let spool = Y.Layout.packet_out_dir ~root:net "sw1" in
  Alcotest.(check int) "pending" 2 (List.length (ok (Fs.readdir fs ~cred spool)));
  (match
     ok
       (Y.Outdir.consume fs ~cred ~root:net ~switch:"sw1"
          ~on_error:(fun e -> Alcotest.fail (Vfs.Errno.message e)))
   with
  | [ r1; r2 ] ->
    Alcotest.(check int) "order" seq1 r1.Y.Outdir.seq;
    Alcotest.(check (option int)) "in_port" (Some 2) r1.Y.Outdir.in_port;
    Alcotest.(check string) "data" "bytes" r1.Y.Outdir.data;
    Alcotest.(check (option int32)) "buffer" (Some 5l) r2.Y.Outdir.buffer_id
  | l -> Alcotest.failf "expected 2 requests, got %d" (List.length l));
  Alcotest.(check (list string)) "drained" [] (ok (Fs.readdir fs ~cred spool))

(* Spool numbers belong to the mount: a second controller in the same
   process numbers its first packet-out and its first event 1, whatever
   the first one posted before it. *)
let test_spool_numbers_per_controller () =
  let controller () =
    let ctl = Yanc.Controller.create ~net:(Netsim.Topo_gen.linear 1).Netsim.Topo_gen.net () in
    let yfs = Yanc.Controller.yfs ctl in
    ok (Fs.mkdir (Y.Yanc_fs.fs yfs) ~cred (p "/net/switches/sw9"));
    ok (Y.Eventdir.subscribe (Y.Yanc_fs.fs yfs) ~cred ~root:net ~switch:"sw9" ~app:"a");
    yfs
  in
  let post yfs =
    let seq =
      ok
        (Y.Outdir.submit yfs ~cred ~switch:"sw9" ~actions:[ OF.Action.Output OF.Action.Flood ]
           ~data:"x" ())
    in
    ignore (ok (publish yfs ~switch:"sw9" "x"));
    ( seq,
      ok (Fs.readdir (Y.Yanc_fs.fs yfs) ~cred (Y.Layout.event_buffer ~root:net ~switch:"sw9" "a")) )
  in
  let first = controller () in
  for _ = 1 to 3 do ignore (post first) done;
  Alcotest.(check (pair int (list string))) "the second controller's first records" (1, [ "1" ])
    (post (controller ()))

(* --- views ---------------------------------------------------------------------------------- *)

let test_in_view_is_full_root () =
  let _, yfs = setup () in
  let vy = ok (Y.Yanc_fs.in_view yfs ~cred "tenant") in
  ok (Y.Yanc_fs.add_switch vy ~cred:Vfs.Cred.root ~name:"vsw" ~dpid:9L ~protocol:"virtual"
        ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
  Alcotest.(check (list string)) "switch in view" [ "vsw" ] (Y.Yanc_fs.switch_names vy);
  Alcotest.(check (list string)) "master unaffected" [] (Y.Yanc_fs.switch_names yfs);
  (* views nest *)
  let vvy = ok (Y.Yanc_fs.in_view vy ~cred "inner") in
  Alcotest.(check string) "nested root" "/net/views/tenant/views/inner"
    (Path.to_string (Y.Yanc_fs.root vvy))

(* --- hosts & peers ---------------------------------------------------------------------------- *)

let test_host_records () =
  let _, yfs = setup () in
  let mac = Packet.Mac.of_int 0x020000000001 in
  let ip = Packet.Ipv4_addr.of_string "10.0.0.1" in
  ok (Y.Yanc_fs.add_switch yfs ~cred:Vfs.Cred.root ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
        ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
  ok
    (Y.Yanc_fs.set_port yfs ~cred:Vfs.Cred.root ~switch:"sw1"
       (OF.Of_types.Port_info.make ~port_no:1 ~hw_addr:mac ()));
  ok
    (Y.Yanc_fs.upsert_host yfs ~cred ~name:"h1" ~mac ~ip
       ~attached_to:("sw1", 1) ());
  let back_mac, back_ip, attached = ok (Y.Yanc_fs.read_host yfs ~cred "h1") in
  Alcotest.(check bool) "mac" true (Packet.Mac.equal mac back_mac);
  Alcotest.(check bool) "ip" true (back_ip = ip);
  Alcotest.(check (option (pair string int))) "attachment" (Some ("sw1", 1)) attached

let test_peer_roundtrip () =
  let _, yfs = setup () in
  List.iter
    (fun name ->
      ok (Y.Yanc_fs.add_switch yfs ~cred:Vfs.Cred.root ~name ~dpid:1L ~protocol:"openflow10"
            ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
      ok
        (Y.Yanc_fs.set_port yfs ~cred:Vfs.Cred.root ~switch:name
           (OF.Of_types.Port_info.make ~port_no:1
              ~hw_addr:(Packet.Mac.of_int 0x02) ())))
    [ "sw1"; "sw2" ];
  ok (Y.Yanc_fs.set_peer yfs ~cred ~switch:"sw1" ~port:1 ~peer:(Some ("sw2", 1)));
  Alcotest.(check (option (pair string int))) "peer read back" (Some ("sw2", 1))
    (Y.Yanc_fs.peer_of yfs ~cred ~switch:"sw1" ~port:1);
  ok (Y.Yanc_fs.set_peer yfs ~cred ~switch:"sw1" ~port:1 ~peer:None);
  Alcotest.(check (option (pair string int))) "peer removed" None
    (Y.Yanc_fs.peer_of yfs ~cred ~switch:"sw1" ~port:1)

(* --- property: flowdir roundtrip --------------------------------------------------------------- *)

let flow_gen =
  let open QCheck.Gen in
  let action =
    oneof
      [ map (fun pt -> OF.Action.Output (OF.Action.Physical pt)) (int_range 1 64);
        return (OF.Action.Output OF.Action.Flood);
        map (fun v -> OF.Action.Set_vlan v) (int_bound 4095);
        return OF.Action.Strip_vlan;
        map (fun x -> OF.Action.Set_tp_dst x) (int_bound 0xffff) ]
  in
  map
    (fun ((tp, proto), (pri, idle), actions) ->
      { Y.Flowdir.default with
        Y.Flowdir.of_match =
          { OF.Of_match.any with
            OF.Of_match.dl_type = Some 0x0800;
            nw_proto = Some proto;
            tp_dst = tp };
        actions;
        priority = pri;
        idle_timeout = idle })
    (triple
       (pair (opt (int_bound 0xffff)) (oneofl [ 6; 17 ]))
       (pair (int_bound 0xffff) (int_bound 300))
       (list_size (int_bound 4) action))

let prop_flowdir_roundtrip =
  QCheck.Test.make ~name:"flow directories roundtrip arbitrary flows" ~count:100
    (QCheck.make flow_gen) (fun flow ->
      let fs, yfs = setup () in
      ignore (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
      match Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"f" flow with
      | Error _ -> false
      | Ok () -> (
        match Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw1" "f" with
        | Error _ -> false
        | Ok back ->
          Y.Flowdir.equal_config { flow with Y.Flowdir.version = 0 }
            { back with Y.Flowdir.version = 0 }))

(* The declared tree (what [yancctl schema] prints) against a
   provisioned network: a k=4 fat tree under topologyd and arpd, a
   host, a pushed flow, and a slice view of one switch. Every directory
   of the live /net tree classifies to a declared directory kind (not
   outside the tree, not a record's attribute) and holds every child the
   schema makes with its kind. *)
let test_schema_live_tree () =
  let built = Netsim.Topo_gen.fat_tree ~k:4 () in
  let ctl = Yanc.Controller.create ~net:built.Netsim.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
  Yanc.Controller.add_app ctl (Apps.Arp_daemon.app (Apps.Arp_daemon.create yfs));
  Yanc.Controller.run_for ctl 0.3;
  let sw = List.hd (Y.Yanc_fs.switch_names yfs) in
  ok
    (Y.Yanc_fs.upsert_host yfs ~cred ~name:"h1" ~mac:(Netsim.Topo_gen.host_mac 1)
       ~ip:(Some (Netsim.Topo_gen.host_ip 1)) ~attached_to:(sw, 1) ());
  ignore (ok_s (Apps.Flow_pusher.push_config yfs ~cred "* name=flood priority=1 action.0.out=flood"));
  let slicer =
    match
      Views.Slicer.create ~master:yfs
        { Views.Slicer.view = "slice"; switches = [ sw, [] ]; flowspace = OF.Of_match.any;
          priority_cap = 30000 }
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "slicer: %s" (Vfs.Errno.to_string e)
  in
  Yanc.Controller.add_app ctl (Views.Slicer.app slicer);
  Yanc.Controller.run_for ctl 1.0;
  ok_s
    (Y.Yanc_fs.upsert_flow (Views.Slicer.view_fs slicer) ~cred ~switch:sw ~name:"tenant"
       { Y.Flowdir.default with Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical 2) ] });
  Yanc.Controller.run_for ctl 7.0;
  let fs = Y.Yanc_fs.fs yfs in
  let dirs =
    ok
      (Fs.fold fs ~cred net ~init:[] (fun acc path (st : Fs.stat) ->
           ((if st.kind = Fs.Dir then path :: acc else acc), `Continue)))
  in
  let kinds =
    List.map
      (fun path ->
        let k = Y.Schema.classify ~root:net path in
        let name = Path.to_string path in
        Alcotest.(check bool) (name ^ " is a declared directory") true
          (k != Y.Schema.not_yanc && not (k.naming = Y.Schema.Any && k.children = []));
        List.iter
          (fun child ->
            Alcotest.(check bool) (name ^ " has " ^ child) true
              (Fs.kind_of fs ~cred (Path.child path child) = Ok Fs.Dir))
          k.makes;
        k.kind)
      dirs
  in
  (* The walk reached every kind the provisioning makes. *)
  List.iter
    (fun kind -> Alcotest.(check bool) ("a " ^ kind) true (List.mem kind kinds))
    [ "root"; "host"; "switch"; "switch_counters"; "events_dir"; "event_buffer";
      "flows_dir"; "flow"; "flow_attr"; "packet_out"; "ports_dir"; "port"; "port_attr";
      "views_dir" ];
  let tenant_flow = Y.Layout.flow ~root:(Y.Layout.view ~root:net "slice") ~switch:sw "tenant" in
  Alcotest.(check bool) "a view's flow" true
    (List.exists
       (fun path ->
         Path.equal path tenant_flow && Y.Schema.classify ~root:net path == Y.Schema.flow)
       dirs)

(* Every codec writes its record's declared fields, in the declared
   order (a family's members where the family stands), and a record
   written whole writes all of them: the files each write journals,
   against the record's node. *)
let test_codecs_follow_schema () =
  let fs, yfs = setup () in
  let written = ref [] in
  let hook =
    Fs.subscribe fs (function
      | Vfs.Op.Write { path; _ } -> written := path :: !written
      | _ -> ())
  in
  let check what (node : Y.Schema.node) ~whole f =
    written := [];
    f ();
    let names = List.rev_map (fun p -> Option.get (Path.basename p)) !written in
    let index name =
      let rec go i = function
        | [] -> Alcotest.failf "%s: %s is not a declared field" what name
        | d :: rest -> if Y.Schema.is_field { node with fields = [ d ] } name then i else go (i + 1) rest
      in
      go 0 node.fields
    in
    let order = List.map index names in
    Alcotest.(check (list int)) (what ^ ": declared order") (List.sort compare order) order;
    if whole then
      Alcotest.(check (list int)) (what ^ ": every field")
        (List.init (List.length node.fields) Fun.id) (List.sort_uniq compare order)
  in
  let port =
    OF.Of_types.Port_info.make ~port_no:1 ~name:"eth1" ~hw_addr:(Packet.Mac.of_int 1)
      ~speed_mbps:1000 ~admin_down:false ~link_down:false ()
  in
  check "switch" Y.Schema.switch ~whole:true (fun () ->
      ok
        (Y.Yanc_fs.add_switch yfs ~cred ~name:"sw1" ~dpid:1L ~protocol:"of10" ~n_buffers:256
           ~n_tables:1 ~capabilities:[ "flow_stats" ] ~actions:[ "output" ]));
  check "port" Y.Schema.port ~whole:true (fun () ->
      ok (Y.Yanc_fs.set_port yfs ~cred ~switch:"sw1" port));
  check "port counters" Y.Schema.port_counters ~whole:true (fun () ->
      ok
        (Y.Yanc_fs.write_port_counters yfs ~switch:"sw1" ~port:1
           { OF.Of_types.Port_stats.port_no = 1; rx_packets = 1L; tx_packets = 2L;
             rx_bytes = 3L; tx_bytes = 4L; rx_dropped = 0L; tx_dropped = 0L }));
  check "host" Y.Schema.host ~whole:true (fun () ->
      ok
        (Y.Yanc_fs.upsert_host yfs ~cred ~name:"h1" ~mac:(Packet.Mac.of_int 2)
           ~ip:(Packet.Ipv4_addr.of_string "10.0.0.1") ()));
  check "flow" Y.Schema.flow ~whole:true (fun () ->
      ok
        (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"f"
           { Y.Flowdir.default with
             Y.Flowdir.of_match = { OF.Of_match.any with OF.Of_match.dl_type = Some 0x800 };
             actions = [ OF.Action.Output (OF.Action.Physical 2) ];
             buffer_id = Some 7l }));
  check "flow counters" Y.Schema.flow_counters ~whole:true (fun () ->
      let d = ok (Y.Yanc_fs.open_flow yfs ~cred ~switch:"sw1" "f") in
      ok (Y.Flowdir.write_counters fs ~cred d ~packets:1L ~bytes:2L ~duration_s:3));
  check "request" Y.Schema.request ~whole:true (fun () ->
      ignore
        (ok
           (Y.Outdir.submit yfs ~cred ~switch:"sw1" ~buffer_id:3l ~in_port:1
              ~actions:[ OF.Action.Output OF.Action.Flood ] ~data:"frame" ())));
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"a");
  check "event" Y.Schema.event ~whole:true (fun () ->
      ignore
        (ok
           (Y.Eventdir.publish yfs ~cred ~switch:"sw1" ~in_port:1
              ~reason:OF.Of_types.No_match ~buffer_id:(Some 5l) ~total_len:5 ~data:"frame")));
  Fs.unsubscribe fs hook

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_flowdir_roundtrip ]

let () =
  Alcotest.run "yancfs"
    [ ( "layout",
        [ Alcotest.test_case "paths" `Quick test_layout_paths;
          Alcotest.test_case "top level" `Quick test_top_level_structure ] );
      ( "schema",
        [ Alcotest.test_case "classification" `Quick test_classify;
          Alcotest.test_case "semantic mkdir: view" `Quick test_semantic_mkdir_view;
          Alcotest.test_case "semantic mkdir: switch" `Quick test_semantic_mkdir_switch;
          Alcotest.test_case "semantic mkdir: flow/port" `Quick
            test_semantic_mkdir_flow_and_port;
          Alcotest.test_case "ownership inheritance" `Quick
            test_semantic_mkdir_ownership;
          Alcotest.test_case "recursive switch rmdir" `Quick test_recursive_switch_rmdir;
          Alcotest.test_case "peer symlink policy" `Quick test_peer_symlink_policy;
          Alcotest.test_case "declared tree vs a live network" `Quick
            test_schema_live_tree;
          Alcotest.test_case "codecs follow the declaration" `Quick
            test_codecs_follow_schema ] );
      ( "ports",
        [ Alcotest.test_case "config.port_down" `Quick test_port_down_file;
          Alcotest.test_case "peer roundtrip" `Quick test_peer_roundtrip ] );
      ( "flows",
        [ Alcotest.test_case "roundtrip" `Quick test_flowdir_roundtrip;
          Alcotest.test_case "wildcards by absence" `Quick test_flowdir_wildcards;
          Alcotest.test_case "rejects garbage" `Quick test_flowdir_rejects_garbage;
          Alcotest.test_case "version protocol" `Quick test_flowdir_version_readback;
          Alcotest.test_case "rewrite drops stale fields" `Quick
            test_flowdir_rewrite_removes_stale_fields;
          Alcotest.test_case "counters and error" `Quick test_flow_counters_and_error;
          Alcotest.test_case "upsert continues the version chain" `Quick
            test_upsert_flow ] );
      ( "pktin-ring",
        [ Alcotest.test_case "publish/drain roundtrip" `Quick
            test_pktin_roundtrip;
          Alcotest.test_case "no subscribers -> counted drop" `Quick
            test_pktin_no_subscribers;
          Alcotest.test_case "two consumers, pooled recycle" `Quick
            test_pktin_two_consumers_recycle;
          Alcotest.test_case "overflow lapping" `Quick test_pktin_overflow;
          Alcotest.test_case "steady state allocates zero" `Quick
            test_pktin_pool_steady_state;
          Alcotest.test_case "zero copy" `Quick test_pktin_zero_copy;
          QCheck_alcotest.to_alcotest prop_pktin_matches_queue ] );
      ( "events",
        [ Alcotest.test_case "fan-out to private buffers" `Quick test_eventdir_fanout;
          Alcotest.test_case "fifo ordering" `Quick test_eventdir_ordering;
          Alcotest.test_case "no subscribers" `Quick test_eventdir_no_subscribers;
          Alcotest.test_case "non-root subscriber drains once" `Quick
            test_eventdir_non_root_subscriber;
          Alcotest.test_case "failed removal counted" `Quick
            test_eventdir_failed_removal;
          Alcotest.test_case "unparseable event counted once" `Quick
            test_eventdir_unparseable;
          Alcotest.test_case "unlistable buffer counted" `Quick
            test_eventdir_unlistable_buffer;
          Alcotest.test_case "unwritable buffer reported" `Quick
            test_eventdir_unwritable_buffer;
          Alcotest.test_case "symlink is not a buffer" `Quick
            test_eventdir_symlink_not_buffer;
          Alcotest.test_case "packet-out spool" `Quick test_outdir_roundtrip;
          Alcotest.test_case "spool numbers per controller" `Quick
            test_spool_numbers_per_controller ] );
      ( "views-hosts",
        [ Alcotest.test_case "view is a full root" `Quick test_in_view_is_full_root;
          Alcotest.test_case "host records" `Quick test_host_records ] );
      "properties", qcheck_cases ]
