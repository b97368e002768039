(* Failure injection and cross-cutting property tests: garbage on the
   wire, notification-queue overflow, conflicting distributed writes,
   and algebraic properties of the core abstractions. *)

module Y = Yancfs
module N = Netsim
module OF = Openflow
module P = Packet
module Fs = Vfs.Fs
module Path = Vfs.Path

let cred = Vfs.Cred.root

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

(* --- wire garbage ------------------------------------------------------------- *)

let test_agent_survives_garbage () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V10 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  (* a correctly framed message with an unknown type byte *)
  let bogus = "\001\099\000\012\000\000\000\001ABCD" in
  N.Control_channel.send ctl_end bogus;
  N.Of_agent.step agent ~now:0.;
  let got_error =
    List.exists
      (fun raw ->
        match OF.Of10.decode raw with
        | Ok (_, OF.Msg.Error_msg _) -> true
        | _ -> false)
      (N.Control_channel.recv_all ctl_end)
  in
  Alcotest.(check bool) "agent answers garbage with an error" true got_error;
  (* and keeps working afterwards *)
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:9l (OF.Msg.Echo_request "alive"));
  N.Of_agent.step agent ~now:0.;
  let alive =
    List.exists
      (fun raw ->
        match OF.Of10.decode raw with
        | Ok (9l, OF.Msg.Echo_reply "alive") -> true
        | _ -> false)
      (N.Control_channel.recv_all ctl_end)
  in
  Alcotest.(check bool) "agent still alive" true alive

let test_driver_survives_garbage () =
  let built = N.Topo_gen.linear 1 in
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  let sw = Option.get (N.Network.switch built.net 1L) in
  let sw_end, ctl_end = N.Control_channel.create () in
  let module D = Driver.Core in
  let d = D.create ~dialect:OF.Dialect.V10 ~yfs ~endpoint:ctl_end () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V10 ~switch:sw ~endpoint:sw_end
      ~network:built.net ()
  in
  (* poison the driver's inbox with a framed-but-bogus message, then let
     the handshake proceed *)
  N.Control_channel.send sw_end "\001\099\000\010\000\000\000\001XY";
  for _ = 1 to 4 do
    D.step d ~now:0.;
    N.Of_agent.step agent ~now:0.
  done;
  Alcotest.(check bool) "driver connected despite garbage" true (D.connected d);
  Alcotest.(check (option string)) "switch dir built" (Some "sw1") (D.switch_name d)

(* --- notification overflow ------------------------------------------------------ *)

let test_driver_recovers_from_notify_overflow () =
  (* Flood the driver's notifier far past its queue limit, then commit a
     real flow: the overflow marker must trigger a full rescan. *)
  let built = N.Topo_gen.linear 1 in
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  let mgr = Driver.Manager.create ~yfs ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  (* 17k events against the 16384-entry queue, all in the flows dir *)
  let junk = Y.Layout.flows_dir ~root:(Y.Yanc_fs.root yfs) "sw1" in
  let staging = Path.child junk "staging" in
  ok (Fs.mkdir fs ~cred staging);
  for i = 1 to 8500 do
    let p = Path.child staging (Printf.sprintf "x%d" i) in
    ok (Fs.write_file fs ~cred p "z");
    ok (Fs.unlink fs ~cred p)
  done;
  ok (Fs.rmdir fs ~cred staging);
  (* now the real commit, likely past the queue edge *)
  ok
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"real"
       { Y.Flowdir.default with
         Y.Flowdir.actions = [ OF.Action.Output OF.Action.Flood ] });
  Driver.Manager.run_control mgr ~now:1.;
  let sw = Option.get (N.Network.switch built.net 1L) in
  let report = Yanc.Audit.switch yfs sw ~now:1. ~desired:None in
  Alcotest.(check (pair bool int)) "flow programmed despite overflow" (true, 1)
    (Yanc.Audit.ok report, report.hw_rules)

(* --- conflicting distributed writes ----------------------------------------------- *)

let test_dfs_conflicting_writes_converge () =
  let c =
    Dfs.Cluster.create ~consistency:(Dfs.Consistency.Eventual { propagation_s = 1. })
      ~n:2 ()
  in
  let a = Dfs.Cluster.node c 0
  and b = Dfs.Cluster.node c 1 in
  let p = Path.of_string_exn "/shared" in
  ok (Fs.write_file a ~cred p "from-a");
  ok (Fs.write_file b ~cred p "from-b");
  Dfs.Cluster.flush c;
  let va = ok (Fs.read_file a ~cred p) in
  let vb = ok (Fs.read_file b ~cred p) in
  (* both ops applied everywhere; the final values come from each
     other's op (classic last-writer-wins cross) — the important
     invariant is that nothing is lost or wedged and replicas hold a
     valid value *)
  Alcotest.(check bool) "a holds a known value" true (va = "from-a" || va = "from-b");
  Alcotest.(check bool) "b holds a known value" true (vb = "from-a" || vb = "from-b");
  Alcotest.(check bool) "converged" true (Dfs.Cluster.converged c)

(* --- properties --------------------------------------------------------------------- *)

let mac_gen = QCheck.Gen.(map P.Mac.of_int (int_bound ((1 lsl 48) - 1)))

let header_gen =
  let open QCheck.Gen in
  map
    (fun ((in_port, src, dst), (proto, (tp_src, tp_dst)), ip) ->
      let payload =
        if proto = 6 then
          P.Ipv4.Tcp (P.Tcp.make ~src_port:tp_src ~dst_port:tp_dst ())
        else P.Ipv4.Udp { P.Udp.src_port = tp_src; dst_port = tp_dst; payload = P.Udp.Data "" }
      in
      P.Headers.of_eth ~in_port
        (P.Eth.make ~src ~dst
           (P.Eth.Ipv4
              (P.Ipv4.make
                 ~src:(P.Ipv4_addr.of_int32 (Int32.of_int ip))
                 ~dst:(P.Ipv4_addr.of_int32 (Int32.of_int (ip + 1)))
                 payload))))
    (triple
       (triple (int_range 1 8) mac_gen mac_gen)
       (pair (oneofl [ 6; 17 ]) (pair (int_bound 0xffff) (int_bound 0xffff)))
       (int_bound 0xffffff))

let match_gen =
  let open QCheck.Gen in
  map
    (fun ((port, proto), (tp, prefix_bits), base) ->
      { OF.Of_match.any with
        OF.Of_match.in_port = port;
        dl_type = Some 0x0800;
        nw_proto = proto;
        tp_dst = tp;
        nw_src =
          Option.map
            (fun bits ->
              P.Ipv4_addr.Prefix.make (P.Ipv4_addr.of_int32 (Int32.of_int base)) bits)
            prefix_bits })
    (triple
       (pair (opt (int_range 1 8)) (opt (oneofl [ 6; 17 ])))
       (pair (opt (int_bound 0xffff)) (opt (int_range 1 32)))
       (int_bound 0xffffff))

let prop_intersect_sound =
  QCheck.Test.make ~name:"intersect matches exactly the common packets" ~count:500
    (QCheck.make QCheck.Gen.(triple match_gen match_gen header_gen))
    (fun (a, b, h) ->
      match OF.Of_match.intersect a b with
      | Some meet ->
        OF.Of_match.matches meet h
        = (OF.Of_match.matches a h && OF.Of_match.matches b h)
      | None ->
        (* disjoint: no packet may match both *)
        not (OF.Of_match.matches a h && OF.Of_match.matches b h))

let prop_acl_empty_equals_mode =
  QCheck.Test.make ~name:"empty ACL behaves exactly like mode bits" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple (int_bound 0o777) (pair (int_bound 5) (int_bound 5))
           (pair (int_bound 5) (int_bound 5))))
    (fun (mode, (owner, group), (uid, gid)) ->
      let c = Vfs.Cred.make ~uid ~gid () in
      List.for_all
        (fun access ->
          Vfs.Acl.check ~acl:Vfs.Acl.empty ~mode ~owner ~group c access
          = Vfs.Perm.check ~mode ~owner ~group c access)
        [ Vfs.Perm.r_ok; Vfs.Perm.w_ok; Vfs.Perm.x_ok ])

let op_script_gen =
  let open QCheck.Gen in
  let name = map (Printf.sprintf "f%d") (int_bound 5) in
  list_size (int_range 1 25)
    (oneof
       [ map (fun n -> `Mkdir n) name;
         map2 (fun n v -> `Write (n, Printf.sprintf "v%d" v)) name (int_bound 9);
         map (fun n -> `Unlink n) name;
         map (fun n -> `Rmdir n) name;
         map2 (fun a b -> `Rename (a, b)) name name ])

let run_script fs script =
  let p n = Path.of_string_exn ("/" ^ n) in
  List.iter
    (fun step ->
      ignore
        (match step with
        | `Mkdir n -> Result.map (fun _ -> "") (Fs.mkdir fs ~cred (p n))
        | `Write (n, v) -> Result.map (fun _ -> "") (Fs.write_file fs ~cred (p n) v)
        | `Unlink n -> Result.map (fun _ -> "") (Fs.unlink fs ~cred (p n))
        | `Rmdir n -> Result.map (fun _ -> "") (Fs.rmdir ~recursive:true fs ~cred (p n))
        | `Rename (a, b) ->
          Result.map (fun _ -> "") (Fs.rename fs ~cred ~src:(p a) ~dst:(p b))))
    script

let dump fs =
  Result.value ~default:[]
    (Fs.fold fs ~cred Path.root ~init:[] (fun acc path st ->
         let content =
           if st.Fs.kind = Fs.File then
             match Fs.read_file fs ~cred path with Ok v -> v | Error _ -> ""
           else "<dir>"
         in
         (Path.to_string path, content) :: acc, `Continue))

let prop_replication_deterministic =
  QCheck.Test.make ~name:"op-stream replication reproduces arbitrary trees"
    ~count:200 (QCheck.make op_script_gen) (fun script ->
      let src = Fs.create () in
      let dst = Fs.create () in
      let _h = Fs.subscribe src (fun op -> ignore (Fs.replay dst op)) in
      run_script src script;
      dump src = dump dst)

let prop_eventdir_exact_delivery =
  QCheck.Test.make ~name:"event buffers deliver exactly once, in order" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 0 20)))
    (fun (apps, events) ->
      let fs = Fs.create () in
      let yfs = Y.Yanc_fs.create fs in
      ignore (Fs.mkdir fs ~cred (Path.of_string_exn "/net/switches/sw1"));
      let root = Y.Layout.default_root in
      let app i = Printf.sprintf "a%d" i in
      for i = 1 to apps do
        ignore (Y.Eventdir.subscribe fs ~cred ~root ~switch:"sw1" ~app:(app i))
      done;
      for e = 1 to events do
        ignore
          (Y.Eventdir.publish yfs ~cred:Vfs.Cred.root ~switch:"sw1" ~in_port:e
             ~reason:OF.Of_types.No_match ~buffer_id:None ~total_len:0 ~data:"")
      done;
      List.for_all
        (fun i ->
          let consume () =
            Result.get_ok
              (Y.Eventdir.consume fs ~cred ~root ~switch:"sw1" ~app:(app i)
                 ~on_error:(fun e -> failwith (Vfs.Errno.to_string e)))
          in
          let got = consume () in
          List.length got = events
          && List.for_all2
               (fun (ev : Y.Eventdir.event) e -> ev.in_port = e)
               got
               (List.init events (fun k -> k + 1))
          && consume () = [])
        (List.init apps (fun i -> i + 1)))

let prop_table_delete_complete =
  QCheck.Test.make ~name:"deleted flows never match again" ~count:200
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 10) match_gen) header_gen))
    (fun (matches, h) ->
      let t = N.Flow_table.create () in
      List.iteri
        (fun i m ->
          N.Flow_table.add t ~now:0. ~of_match:m ~priority:i ~actions:[] ())
        matches;
      ignore (N.Flow_table.delete t ~of_match:OF.Of_match.any);
      N.Flow_table.length t = 0 && N.Flow_table.lookup t ~now:0. h = None)

let prop_classify_view_invariant =
  QCheck.Test.make ~name:"classification is invariant under view nesting" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 0 3)
           (oneofl
              [ "switches/sw1"; "switches/sw1/flows/f"; "hosts/h";
                "switches/sw1/ports/port_1/peer"; "views"; "" ])))
    (fun (depth, rel) ->
      let root = Y.Layout.default_root in
      let rec nest i p =
        if i = 0 then p else nest (i - 1) (Path.child (Path.child p "views") "v")
      in
      let base = Path.of_string_exn ("/net/" ^ rel) in
      let nested =
        Path.append (nest depth root)
          (Option.get (Path.strip_prefix ~prefix:root base))
      in
      Y.Schema.classify ~root base = Y.Schema.classify ~root nested)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_intersect_sound; prop_acl_empty_equals_mode;
      prop_replication_deterministic; prop_eventdir_exact_delivery;
      prop_table_delete_complete; prop_classify_view_invariant ]

let () =
  Alcotest.run "robustness"
    [ ( "failure-injection",
        [ Alcotest.test_case "agent survives garbage" `Quick test_agent_survives_garbage;
          Alcotest.test_case "driver survives garbage" `Quick
            test_driver_survives_garbage;
          Alcotest.test_case "driver recovers from notify overflow" `Quick
            test_driver_recovers_from_notify_overflow;
          Alcotest.test_case "dfs conflicting writes" `Quick
            test_dfs_conflicting_writes_converge ] );
      "properties", qcheck_cases ]
