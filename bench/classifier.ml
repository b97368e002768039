(* Flow-table lookup: ABL2 on exact-match tables and E15, the
   tuple-space classifier on mixed-mask rules. *)

open Harness

let strategies =
  [ "linear", N.Flow_table.Linear; "classifier", N.Flow_table.Classifier ]

(* ================================================================== *)
(* Ablation — flow table lookup strategy (DESIGN.md). *)
(* ================================================================== *)

let ablation_lookup () =
  section "ABL2 flow-table lookup on exact-match tables: linear vs classifier";
  let header frame in_port = P.Headers.of_eth ~in_port frame in
  let mk_frame i =
    P.Builder.tcp_syn
      ~src_mac:(P.Mac.of_int (0x020000000000 lor i))
      ~dst_mac:(P.Mac.of_int 0x02ffffffffff)
      ~src_ip:(P.Ipv4_addr.of_int32 (Int32.of_int (0x0a000000 lor i)))
      ~dst_ip:(P.Ipv4_addr.of_int32 0x0a0000ffl)
      ~src_port:(1024 + (i land 0xfff))
      ~dst_port:80
  in
  let tests =
    List.concat_map
      (fun size ->
        List.map
          (fun (label, strategy) ->
            let t = N.Flow_table.create ~strategy () in
            for i = 1 to size do
              N.Flow_table.add t ~now:0.
                ~of_match:(OF.Of_match.exact_of_headers (header (mk_frame i) 1))
                ~priority:10 ~actions:[] ()
            done;
            let probe = header (mk_frame (size / 2)) 1 in
            test
              (Printf.sprintf "lookup/%s/%d_flows" label size)
              (fun () -> ignore (N.Flow_table.lookup t ~now:0. probe)))
          strategies)
      [ 10; 100; 1000 ]
  in
  print_benchmarks tests

(* ================================================================== *)
(* E15 — the tuple-space classifier (DESIGN.md): entries examined per
   lookup and wall time, Linear vs Classifier, over a
   mixed-mask rule set (per-MAC forwarding + /24 subnets + port ACLs +
   exact microflows) like a router-plus-ACL controller installs. *)
(* ================================================================== *)

let e15_frame i =
  P.Builder.tcp_syn
    ~src_mac:(P.Mac.of_int (0x020000000000 lor 0xbeef))
    ~dst_mac:(P.Mac.of_int (0x020000000000 lor i))
    ~src_ip:(P.Ipv4_addr.of_int32 0x0a640001l)
    ~dst_ip:
      (P.Ipv4_addr.of_int32
         (Int32.of_int (0x0a000000 lor ((i land 0xff) lsl 8) lor 1)))
    ~src_port:(1024 + (i land 0xff))
    ~dst_port:(1024 + (i land 0x3fff))

let e15_rules size =
  List.init size (fun i ->
      match i mod 4 with
      | 0 ->
        ( 100,
          { OF.Of_match.any with
            OF.Of_match.dl_dst = Some (P.Mac.of_int (0x020000000000 lor i)) } )
      | 1 ->
        ( 200,
          { OF.Of_match.any with
            OF.Of_match.dl_type = Some 0x0800;
            nw_dst =
              Some
                (P.Ipv4_addr.Prefix.make
                   (P.Ipv4_addr.of_int32
                      (Int32.of_int (0x0a000000 lor ((i land 0xff) lsl 8))))
                   24) } )
      | 2 ->
        ( 300,
          { OF.Of_match.any with
            OF.Of_match.dl_type = Some 0x0800; nw_proto = Some 6;
            tp_dst = Some (1024 + (i land 0x3fff)) } )
      | _ ->
        400, OF.Of_match.exact_of_headers (P.Headers.of_eth ~in_port:1 (e15_frame i)))

let e15_probes n =
  Array.init n (fun k -> P.Headers.of_eth ~in_port:1 (e15_frame (k mod 256)))

let e15_table strategy size =
  let t = N.Flow_table.create ~strategy () in
  List.iter
    (fun (priority, of_match) ->
      N.Flow_table.add t ~now:0. ~of_match ~priority
        ~actions:[ OF.Action.Output (OF.Action.Physical 1) ] ())
    (e15_rules size);
  t

(* A fresh [size]-flow table looked up once per probe: the table, its
   cost counters (covering exactly these lookups) and each probe's
   winning priority. *)
let e15_lookups strategy size probes =
  let t = e15_table strategy size in
  let cost = N.Flow_table.cost t in
  N.Flow_table.Cost.reset cost;
  let winners =
    Array.map
      (fun h ->
        Option.map
          (fun e -> e.N.Flow_table.priority)
          (N.Flow_table.lookup t ~now:0. h))
      probes
  in
  t, cost, winners

let e15_classifier () =
  section "E15a classifier: entries examined per lookup over mixed-mask rules";
  row "  %6s | %-10s | %12s | %12s | %10s | %8s\n" "flows" "strategy"
    "entries/lkp" "subtbl/lkp" "micro hit%" "matched";
  let probes = e15_probes 2048 in
  List.iter
    (fun size ->
      List.iter
        (fun (label, strategy) ->
          let _, cost, winners = e15_lookups strategy size probes in
          let won = Array.fold_left (fun n w -> if w = None then n else n + 1) 0 winners in
          let lkps = float_of_int (max 1 (N.Flow_table.Cost.lookups cost)) in
          let hits = N.Flow_table.Cost.micro_hits cost in
          let cache_probes = hits + N.Flow_table.Cost.micro_misses cost in
          row "  %6d | %-10s | %12.1f | %12.2f | %9.1f%% | %8d\n" size label
            (float_of_int (N.Flow_table.Cost.entries_examined cost) /. lkps)
            (float_of_int (N.Flow_table.Cost.subtables_visited cost) /. lkps)
            (100. *. float_of_int hits /. float_of_int (max 1 cache_probes))
            won)
        strategies)
    [ 100; 300; 1000 ];
  section "E15b wall time per lookup: 1000 mixed-mask flows";
  let tests =
    List.map
      (fun (label, strategy) ->
        let t = e15_table strategy 1000 in
        let i = ref 0 in
        test
          (Printf.sprintf "lookup/%s/1000_mixed" label)
          (fun () ->
            incr i;
            ignore (N.Flow_table.lookup t ~now:0. probes.(!i land 2047))))
      strategies
  in
  print_benchmarks tests;
  section "E15c reactive workload: fat-tree ping sweep, linear vs classifier";
  row "  %-10s | %10s | %14s | %12s\n" "datapath" "frames" "entries/lookup"
    "wall s";
  List.iter
    (fun (label, strategy) ->
      let built = N.Topo_gen.fat_tree ~k:4 ~strategy () in
      let ctl = reactive_controller built.N.Topo_gen.net in
      let t0 = Sys.time () in
      Yanc.Controller.run_for ctl 3.0;
      let net = built.N.Topo_gen.net in
      let h1 = Option.get (N.Network.host net "h1") in
      List.iteri
        (fun i _ ->
          let n = i + 1 in
          if n > 1 then begin
            N.Network.send_from_host net "h1"
              (N.Sim_host.ping h1 ~now:(N.Network.now net)
                 ~dst:(N.Topo_gen.host_ip n) ~seq:n);
            ignore
              (Yanc.Controller.run_until ctl (fun () ->
                   List.length (N.Sim_host.ping_results h1) >= n - 1))
          end)
        built.N.Topo_gen.host_names;
      let wall = Sys.time () -. t0 in
      let dcost = Yanc.Controller.datapath_cost ctl in
      let delivered, _ = N.Network.stats net in
      row "  %-10s | %10d | %14.1f | %12.3f\n" label delivered
        (float_of_int (N.Flow_table.Cost.entries_examined dcost)
        /. float_of_int (max 1 (N.Flow_table.Cost.lookups dcost)))
        wall)
    strategies
