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
    [ "/net", Y.Schema.Root;
      "/net/hosts", Y.Schema.Hosts_dir;
      "/net/hosts/h1", Y.Schema.Host;
      "/net/hosts/h1/mac", Y.Schema.Host_attr;
      "/net/switches", Y.Schema.Switches_dir;
      "/net/switches/sw1", Y.Schema.Switch;
      "/net/switches/sw1/id", Y.Schema.Switch_attr;
      "/net/switches/sw1/counters", Y.Schema.Switch_counters;
      "/net/switches/sw1/flows", Y.Schema.Flows_dir;
      "/net/switches/sw1/flows/f1", Y.Schema.Flow;
      "/net/switches/sw1/flows/f1/match.tp_dst", Y.Schema.Flow_attr;
      "/net/switches/sw1/ports", Y.Schema.Ports_dir;
      "/net/switches/sw1/ports/port_1", Y.Schema.Port;
      "/net/switches/sw1/ports/port_1/peer", Y.Schema.Port_attr;
      "/net/switches/sw1/events", Y.Schema.Events_dir;
      "/net/switches/sw1/events/routerd", Y.Schema.Event_buffer;
      "/net/switches/sw1/events/routerd/4", Y.Schema.Event;
      "/net/switches/sw1/events/routerd/4/data", Y.Schema.Event_attr;
      "/net/views", Y.Schema.Views_dir;
      "/net/views/tenant", Y.Schema.Root;
      "/net/views/tenant/switches/sw1", Y.Schema.Switch;
      "/net/views/a/views/b/switches/s/flows/f", Y.Schema.Flow;
      "/elsewhere", Y.Schema.Not_yanc ]
  in
  List.iter
    (fun (path, expected) ->
      Alcotest.(check string) path
        (Y.Schema.kind_to_string expected)
        (Y.Schema.kind_to_string (Y.Schema.classify ~root:net (p path))))
    cases

let test_enclosing_root () =
  Alcotest.(check (option string)) "master" (Some "/net")
    (Option.map Path.to_string
       (Y.Schema.enclosing_root ~root:net (p "/net/switches/sw1")));
  Alcotest.(check (option string)) "view" (Some "/net/views/a")
    (Option.map Path.to_string
       (Y.Schema.enclosing_root ~root:net (p "/net/views/a/switches/sw1")));
  Alcotest.(check (option string)) "nested view" (Some "/net/views/a/views/b")
    (Option.map Path.to_string
       (Y.Schema.enclosing_root ~root:net (p "/net/views/a/views/b/hosts")))

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
  ok (Y.Yanc_fs.add_switch yfs ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
        ~n_buffers:256 ~n_tables:1 ~capabilities:[] ~actions:[]);
  ok (Y.Yanc_fs.set_port yfs ~switch:"sw1" info);
  (* echo 1 > port_2/config.port_down *)
  ok
    (Fs.write_file fs ~cred
       (p "/net/switches/sw1/ports/port_2/config.port_down") "1");
  let back = ok (Y.Yanc_fs.read_port yfs ~cred ~switch:"sw1" 2) in
  Alcotest.(check bool) "admin down read back" true back.OF.Of_types.Port_info.admin_down;
  (* the driver refreshing the port must NOT clobber the admin setting *)
  ok (Y.Yanc_fs.set_port yfs ~switch:"sw1" info);
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
  ok (Y.Yanc_fs.add_switch yfs ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
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
  Alcotest.(check (option int)) "no version yet" None
    (Y.Flowdir.read_version fs ~cred dir);
  ok (Y.Flowdir.write fs ~cred dir sample_flow);
  Alcotest.(check (option int)) "bumped" (Some 1) (Y.Flowdir.read_version fs ~cred dir);
  ok (Y.Flowdir.write fs ~cred dir { sample_flow with Y.Flowdir.version = 1 });
  Alcotest.(check (option int)) "bumped again" (Some 2)
    (Y.Flowdir.read_version fs ~cred dir)

let test_flowdir_rewrite_removes_stale_fields () =
  let fs, yfs = setup () in
  ignore yfs;
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let dir = Y.Layout.flow ~root:net ~switch:"sw1" "f" in
  ok (Fs.mkdir fs ~cred dir);
  ok (Y.Flowdir.write fs ~cred dir sample_flow);
  (* rewrite with a narrower match: the old tp_dst file must go away *)
  let broader =
    { sample_flow with
      Y.Flowdir.of_match = { OF.Of_match.any with OF.Of_match.dl_type = Some 0x0806 };
      actions = [];
      version = 1 }
  in
  ok (Y.Flowdir.write fs ~cred dir broader);
  Alcotest.(check bool) "stale match file gone" false
    (Fs.exists fs ~cred (Path.child dir "match.tp_dst"));
  Alcotest.(check bool) "stale action gone" false
    (Fs.exists fs ~cred (Path.child dir "action.1.out"))

let test_flow_counters_and_error () =
  let fs, yfs = setup () in
  ignore yfs;
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let dir = Y.Layout.flow ~root:net ~switch:"sw1" "f" in
  ok (Fs.mkdir fs ~cred dir);
  ok (Y.Flowdir.write_counters fs ~cred dir ~packets:10L ~bytes:640L ~duration_s:5);
  Alcotest.(check string) "packets file" "10"
    (String.trim (ok (Fs.read_file fs ~cred (Path.child (Path.child dir "counters") "packets"))));
  ok (Y.Flowdir.set_error fs ~cred dir (Some "boom"));
  Alcotest.(check string) "error file" "boom"
    (ok (Fs.read_file fs ~cred (Path.child dir "error")));
  ok (Y.Flowdir.set_error fs ~cred dir None);
  Alcotest.(check bool) "error cleared" false
    (Fs.exists fs ~cred (Path.child dir "error"));
  ok (Y.Flowdir.set_error fs ~cred dir None)

(* --- packet-in fast path (ring) --------------------------------------------------- *)

let ring ?capacity () =
  Y.Pktin.create ?capacity ~telemetry:(Telemetry.create ()) ()

let push ?(switch = "sw1") ?(data = "bytes") r =
  Y.Pktin.publish r ~switch ~in_port:2 ~reason:Openflow.Of_types.No_match
    ~buffer_id:None ~total_len:(String.length data) ~data ~at:1.5

let test_pktin_roundtrip () =
  let r = ring () in
  let c = Y.Pktin.subscribe r ~name:"app" in
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
  let c1 = Y.Pktin.subscribe r ~name:"a" in
  let c2 = Y.Pktin.subscribe r ~name:"b" in
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
  let slow = Y.Pktin.subscribe r ~name:"slow" in
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
  let c = Y.Pktin.subscribe r ~name:"app" in
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
  let c = Y.Pktin.subscribe r ~name:"app" in
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
      let c = Y.Pktin.subscribe r ~name:"app" in
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

let publish fs ~switch data =
  Y.Eventdir.publish fs ~root:net ~switch ~in_port:3
    ~reason:Openflow.Of_types.No_match ~buffer_id:(Some 9l)
    ~total_len:(String.length data) ~data

let test_eventdir_fanout () =
  let fs, yfs = setup () in
  ignore yfs;
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  (* two interested applications, one uninterested switch *)
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"router");
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"monitor");
  Alcotest.(check int) "delivered to both" 2 (publish fs ~switch:"sw1" "frame-bytes");
  let router_events = Y.Eventdir.poll fs ~cred ~root:net ~switch:"sw1" ~app:"router" in
  let monitor_events = Y.Eventdir.poll fs ~cred ~root:net ~switch:"sw1" ~app:"monitor" in
  Alcotest.(check int) "router sees one" 1 (List.length router_events);
  Alcotest.(check int) "monitor sees one" 1 (List.length monitor_events);
  let ev = List.hd router_events in
  Alcotest.(check int) "in_port" 3 ev.Y.Eventdir.in_port;
  Alcotest.(check (option int32)) "buffer id" (Some 9l) ev.Y.Eventdir.buffer_id;
  Alcotest.(check string) "data" "frame-bytes" ev.Y.Eventdir.data;
  (* consuming is private: router's consume leaves monitor's copy *)
  ignore (Y.Eventdir.consume fs ~cred ~root:net ~switch:"sw1" ~app:"router");
  Alcotest.(check int) "router drained" 0
    (List.length (Y.Eventdir.poll fs ~cred ~root:net ~switch:"sw1" ~app:"router"));
  Alcotest.(check int) "monitor unaffected" 1
    (List.length (Y.Eventdir.poll fs ~cred ~root:net ~switch:"sw1" ~app:"monitor"))

let test_eventdir_ordering () =
  let fs, yfs = setup () in
  ignore yfs;
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  ok (Y.Eventdir.subscribe fs ~cred ~root:net ~switch:"sw1" ~app:"a");
  ignore (publish fs ~switch:"sw1" "first");
  ignore (publish fs ~switch:"sw1" "second");
  ignore (publish fs ~switch:"sw1" "third");
  let datas =
    List.map
      (fun e -> e.Y.Eventdir.data)
      (Y.Eventdir.consume fs ~cred ~root:net ~switch:"sw1" ~app:"a")
  in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] datas

let test_eventdir_no_subscribers () =
  let fs, yfs = setup () in
  ignore yfs;
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  Alcotest.(check int) "published nowhere" 0 (publish fs ~switch:"sw1" "x")

(* --- packet-out spool -------------------------------------------------------------------- *)

let test_outdir_roundtrip () =
  let fs, yfs = setup () in
  ignore yfs;
  ok (Fs.mkdir fs ~cred (p "/net/switches/sw1"));
  let seq1 =
    ok
      (Y.Outdir.submit fs ~cred ~root:net ~switch:"sw1" ~in_port:2
         ~actions:[ OF.Action.Output OF.Action.Flood ] ~data:"bytes" ())
  in
  let _seq2 =
    ok
      (Y.Outdir.submit fs ~cred ~root:net ~switch:"sw1" ~buffer_id:5l
         ~actions:[ OF.Action.Output (OF.Action.Physical 1) ] ~data:"" ())
  in
  Alcotest.(check int) "pending" 2 (Y.Outdir.pending fs ~root:net ~switch:"sw1");
  (match Y.Outdir.consume fs ~root:net ~switch:"sw1" with
  | [ r1; r2 ] ->
    Alcotest.(check int) "order" seq1 r1.Y.Outdir.seq;
    Alcotest.(check (option int)) "in_port" (Some 2) r1.Y.Outdir.in_port;
    Alcotest.(check string) "data" "bytes" r1.Y.Outdir.data;
    Alcotest.(check (option int32)) "buffer" (Some 5l) r2.Y.Outdir.buffer_id
  | l -> Alcotest.failf "expected 2 requests, got %d" (List.length l));
  Alcotest.(check int) "drained" 0 (Y.Outdir.pending fs ~root:net ~switch:"sw1")

(* --- views ---------------------------------------------------------------------------------- *)

let test_in_view_is_full_root () =
  let _, yfs = setup () in
  let vy = ok (Y.Yanc_fs.in_view yfs ~cred "tenant") in
  ok (Y.Yanc_fs.add_switch vy ~name:"vsw" ~dpid:9L ~protocol:"virtual"
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
  ok (Y.Yanc_fs.add_switch yfs ~name:"sw1" ~dpid:1L ~protocol:"openflow10"
        ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
  ok
    (Y.Yanc_fs.set_port yfs ~switch:"sw1"
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
      ok (Y.Yanc_fs.add_switch yfs ~name ~dpid:1L ~protocol:"openflow10"
            ~n_buffers:0 ~n_tables:1 ~capabilities:[] ~actions:[]);
      ok
        (Y.Yanc_fs.set_port yfs ~switch:name
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

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_flowdir_roundtrip ]

let () =
  Alcotest.run "yancfs"
    [ ( "layout",
        [ Alcotest.test_case "paths" `Quick test_layout_paths;
          Alcotest.test_case "top level" `Quick test_top_level_structure ] );
      ( "schema",
        [ Alcotest.test_case "classification" `Quick test_classify;
          Alcotest.test_case "enclosing root" `Quick test_enclosing_root;
          Alcotest.test_case "semantic mkdir: view" `Quick test_semantic_mkdir_view;
          Alcotest.test_case "semantic mkdir: switch" `Quick test_semantic_mkdir_switch;
          Alcotest.test_case "semantic mkdir: flow/port" `Quick
            test_semantic_mkdir_flow_and_port;
          Alcotest.test_case "ownership inheritance" `Quick
            test_semantic_mkdir_ownership;
          Alcotest.test_case "recursive switch rmdir" `Quick test_recursive_switch_rmdir;
          Alcotest.test_case "peer symlink policy" `Quick test_peer_symlink_policy ] );
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
          Alcotest.test_case "counters and error" `Quick test_flow_counters_and_error ] );
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
          Alcotest.test_case "packet-out spool" `Quick test_outdir_roundtrip ] );
      ( "views-hosts",
        [ Alcotest.test_case "view is a full root" `Quick test_in_view_is_full_root;
          Alcotest.test_case "host records" `Quick test_host_records ] );
      "properties", qcheck_cases ]
