(* Tests for the data-plane simulator. *)

module N = Netsim
module OF = Openflow
module P = Packet

let m s = Option.get (P.Mac.of_string s)

let a s = Option.get (P.Ipv4_addr.of_string s)

let pfx s = Option.get (P.Ipv4_addr.Prefix.of_string s)

let frame ?(src = "02:00:00:00:00:01") ?(dst = "02:00:00:00:00:02")
    ?(dst_port = 80) () =
  P.Builder.tcp_syn ~src_mac:(m src) ~dst_mac:(m dst) ~src_ip:(a "10.0.0.1")
    ~dst_ip:(a "10.0.0.2") ~src_port:1234 ~dst_port

let headers ?dst_port ~in_port () = P.Headers.of_eth ~in_port (frame ?dst_port ())

(* --- flow table ------------------------------------------------------------- *)

let table ?strategy () = N.Flow_table.create ?strategy ()

let add ?(priority = 100) ?(idle = 0) ?(hard = 0) ?(notify = false) t of_match
    actions =
  N.Flow_table.add t ~now:0. ~of_match ~priority ~actions ~idle_timeout:idle
    ~hard_timeout:hard ~notify_removal:notify ()

let all_strategies =
  [ N.Flow_table.Linear, "linear";
    N.Flow_table.Classifier, "classifier" ]

let test_table_priority () =
  let t = table () in
  add ~priority:10 t OF.Of_match.any [ OF.Action.Output (OF.Action.Physical 1) ];
  add ~priority:200 t
    { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 }
    [ OF.Action.Output (OF.Action.Physical 2) ];
  match N.Flow_table.lookup t ~now:0. (headers ~in_port:1 ()) with
  | Some e -> Alcotest.(check int) "high priority wins" 200 e.N.Flow_table.priority
  | None -> Alcotest.fail "no match"

let test_table_replace_same_rule () =
  let t = table () in
  add ~priority:5 t OF.Of_match.any [ OF.Action.Output (OF.Action.Physical 1) ];
  add ~priority:5 t OF.Of_match.any [ OF.Action.Output (OF.Action.Physical 9) ];
  Alcotest.(check int) "replaced, not duplicated" 1 (N.Flow_table.length t);
  match N.Flow_table.lookup t ~now:0. (headers ~in_port:1 ()) with
  | Some e ->
    Alcotest.(check bool) "new actions" true
      (e.N.Flow_table.actions = [ OF.Action.Output (OF.Action.Physical 9) ])
  | None -> Alcotest.fail "no match"

let test_table_delete_subsumption () =
  let t = table () in
  add t { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 } [];
  add t { OF.Of_match.any with OF.Of_match.tp_dst = Some 22 } [];
  add t { OF.Of_match.any with OF.Of_match.dl_type = Some 0x0806 } [];
  let removed =
    N.Flow_table.delete t
      ~of_match:{ OF.Of_match.any with OF.Of_match.tp_dst = Some 80 }
  in
  Alcotest.(check int) "removed one" 1 (List.length removed);
  Alcotest.(check int) "two left" 2 (N.Flow_table.length t);
  let removed_all = N.Flow_table.delete t ~of_match:OF.Of_match.any in
  Alcotest.(check int) "any deletes all" 2 (List.length removed_all);
  Alcotest.(check int) "empty" 0 (N.Flow_table.length t)

let test_table_modify () =
  let t = table () in
  let mm = { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 } in
  add t mm [ OF.Action.Output (OF.Action.Physical 1) ];
  let n = N.Flow_table.modify t ~of_match:mm ~actions:[] in
  Alcotest.(check int) "one updated" 1 n;
  Alcotest.(check int) "modify misses different match" 0
    (N.Flow_table.modify t ~of_match:OF.Of_match.any ~actions:[])

let test_table_timeouts () =
  let t = table () in
  add ~idle:5 t { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 } [];
  add ~hard:10 t { OF.Of_match.any with OF.Of_match.tp_dst = Some 22 } [];
  Alcotest.(check int) "nothing expired yet" 0
    (List.length (N.Flow_table.expire t ~now:4.));
  (match N.Flow_table.lookup t ~now:4. (headers ~in_port:1 ()) with
  | Some e -> N.Flow_table.hit e ~now:4. ~bytes:100
  | None -> Alcotest.fail "should match");
  Alcotest.(check int) "idle refreshed" 0
    (List.length (N.Flow_table.expire t ~now:8.));
  let at12 = N.Flow_table.expire t ~now:12. in
  Alcotest.(check int) "both die by 12" 2 (List.length at12)

let test_table_counters () =
  let t = table () in
  add t OF.Of_match.any [];
  match N.Flow_table.lookup t ~now:1. (headers ~in_port:1 ()) with
  | Some e ->
    N.Flow_table.hit e ~now:1. ~bytes:64;
    N.Flow_table.hit e ~now:2. ~bytes:36;
    Alcotest.(check int64) "packets" 2L e.N.Flow_table.packets;
    Alcotest.(check int64) "bytes" 100L e.N.Flow_table.bytes
  | None -> Alcotest.fail "no match"

(* Regression: entries past their timeout stop matching in [lookup]
   itself, before any [expire] sweep reaps them. *)
let test_table_expired_skipped_in_lookup () =
  List.iter
    (fun (strategy, sname) ->
      let name s = s ^ " (" ^ sname ^ ")" in
      let t = table ~strategy () in
      add ~priority:100 ~idle:5 t
        { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 }
        [ OF.Action.Output (OF.Action.Physical 1) ];
      add ~priority:10 t OF.Of_match.any [ OF.Action.Output (OF.Action.Physical 9) ];
      (* an exact-match rule with a hard timeout, to cover the
         classifier's microflow cache *)
      add ~priority:300 ~hard:3 t
        (OF.Of_match.exact_of_headers (headers ~in_port:1 ()))
        [ OF.Action.Output (OF.Action.Physical 2) ];
      let prio_at now =
        Option.map
          (fun e -> e.N.Flow_table.priority)
          (N.Flow_table.lookup t ~now (headers ~in_port:1 ()))
      in
      Alcotest.(check (option int)) (name "all live") (Some 300) (prio_at 1.);
      Alcotest.(check (option int)) (name "hard-expired skipped") (Some 100)
        (prio_at 3.);
      Alcotest.(check (option int)) (name "idle-expired skipped") (Some 10)
        (prio_at 5.);
      (* the table was never swept; expire still reaps both *)
      Alcotest.(check int) (name "expire reaps both") 2
        (List.length (N.Flow_table.expire t ~now:5.)))
    all_strategies

let test_table_strict_delete () =
  List.iter
    (fun (strategy, sname) ->
      let name s = s ^ " (" ^ sname ^ ")" in
      let t = table ~strategy () in
      let tp80 = { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 } in
      let narrow = { tp80 with OF.Of_match.in_port = Some 1 } in
      add ~priority:100 t tp80 [];
      add ~priority:200 t tp80 [];
      add ~priority:100 t narrow [];
      Alcotest.(check int) (name "strict + wrong priority removes nothing") 0
        (List.length
           (N.Flow_table.delete ~strict:true ~priority:50 t ~of_match:tp80));
      (* strict removes only the exact match at the exact priority — not
         the subsumed narrower rule, not the other priority *)
      (match N.Flow_table.delete ~strict:true ~priority:200 t ~of_match:tp80 with
      | [ e ] ->
        Alcotest.(check int) (name "strict removed p200") 200
          e.N.Flow_table.priority
      | l -> Alcotest.failf "strict removed %d entries" (List.length l));
      Alcotest.(check int) (name "two left") 2 (N.Flow_table.length t);
      (* without a priority, strict still requires match equality *)
      (match N.Flow_table.delete ~strict:true t ~of_match:narrow with
      | [ e ] ->
        Alcotest.(check bool) (name "strict needs exact match") true
          (OF.Of_match.equal e.N.Flow_table.of_match narrow)
      | l -> Alcotest.failf "strict/no-priority removed %d" (List.length l));
      add ~priority:100 t narrow [];
      (* non-strict subsumption takes the narrower rule too *)
      Alcotest.(check int) (name "non-strict removes both") 2
        (List.length (N.Flow_table.delete t ~of_match:tp80)))
    all_strategies

let test_table_entries_order () =
  List.iter
    (fun (strategy, sname) ->
      let t = table ~strategy () in
      let rule i = { OF.Of_match.any with OF.Of_match.tp_dst = Some (1000 + i) } in
      List.iteri
        (fun i priority ->
          add ~priority t (rule i) [ OF.Action.Output (OF.Action.Physical i) ])
        [ 100; 100; 100; 200 ];
      let order () =
        List.map
          (fun e ->
            match e.N.Flow_table.actions with
            | [ OF.Action.Output (OF.Action.Physical i) ] -> i
            | _ -> -1)
          (N.Flow_table.entries t)
      in
      Alcotest.(check (list int))
        ("priority desc, ties in install order (" ^ sname ^ ")")
        [ 3; 0; 1; 2 ] (order ());
      (* replacing an entry re-enters it as the newest of its priority *)
      add ~priority:100 t (rule 0) [ OF.Action.Output (OF.Action.Physical 7) ];
      Alcotest.(check (list int))
        ("replace moves to back (" ^ sname ^ ")")
        [ 3; 1; 2; 7 ] (order ()))
    all_strategies

let test_table_timeout_edges () =
  let t = table () in
  let tp80 = { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 } in
  add ~hard:5 ~notify:true t tp80 [];
  (* hits do not extend a hard timeout *)
  (match N.Flow_table.lookup t ~now:4. (headers ~in_port:1 ()) with
  | Some e -> N.Flow_table.hit e ~now:4. ~bytes:64
  | None -> Alcotest.fail "live before hard timeout");
  Alcotest.(check bool) "hit does not extend hard timeout" true
    (N.Flow_table.lookup t ~now:5. (headers ~in_port:1 ()) = None);
  (match N.Flow_table.expire t ~now:5. with
  | [ e ] ->
    Alcotest.(check bool) "notify_removal preserved" true
      e.N.Flow_table.notify_removal;
    Alcotest.(check int64) "counters preserved" 1L e.N.Flow_table.packets
  | l -> Alcotest.failf "expected 1 expiry, got %d" (List.length l));
  (* idle timeouts measure from the last hit, not from install *)
  add ~idle:3 t tp80 [];
  (match N.Flow_table.lookup t ~now:2. (headers ~in_port:1 ()) with
  | Some e -> N.Flow_table.hit e ~now:2. ~bytes:64
  | None -> Alcotest.fail "live before idle timeout");
  Alcotest.(check int) "idle refreshed by hit" 0
    (List.length (N.Flow_table.expire t ~now:4.9));
  Alcotest.(check bool) "idle fires 3s after last hit" true
    (N.Flow_table.lookup t ~now:5. (headers ~in_port:1 ()) = None);
  Alcotest.(check int) "swept" 1 (List.length (N.Flow_table.expire t ~now:5.));
  (* zero means never *)
  add t tp80 [];
  Alcotest.(check int) "0 = no timeout" 0
    (List.length (N.Flow_table.expire t ~now:1.0e9))

(* --- classifier ------------------------------------------------------------------ *)

let test_classifier_microflow () =
  let t = table ~strategy:N.Flow_table.Classifier () in
  let cost = N.Flow_table.cost t in
  let tp80 = { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 } in
  add ~priority:10 t tp80 [ OF.Action.Output (OF.Action.Physical 1) ];
  let h = headers ~in_port:1 () in
  let prio () =
    Option.map (fun e -> e.N.Flow_table.priority) (N.Flow_table.lookup t ~now:0. h)
  in
  Alcotest.(check (option int)) "cold lookup" (Some 10) (prio ());
  Alcotest.(check int) "first lookup misses the cache" 1
    (N.Flow_table.Cost.micro_misses cost);
  Alcotest.(check (option int)) "warm lookup" (Some 10) (prio ());
  Alcotest.(check int) "second lookup hits the cache" 1
    (N.Flow_table.Cost.micro_hits cost);
  let st = N.Flow_table.Cost.subtables_visited cost in
  Alcotest.(check (option int)) "still cached" (Some 10) (prio ());
  Alcotest.(check int) "cache hit probes no subtable" st
    (N.Flow_table.Cost.subtables_visited cost);
  (* any mutation invalidates: a higher-priority add must win at once *)
  add ~priority:20 t
    { OF.Of_match.any with OF.Of_match.in_port = Some 1 }
    [ OF.Action.Output (OF.Action.Physical 2) ];
  Alcotest.(check bool) "add invalidates" true
    (N.Flow_table.Cost.invalidations cost >= 1);
  Alcotest.(check (option int)) "new winner after invalidation" (Some 20)
    (prio ());
  ignore
    (N.Flow_table.delete t
       ~of_match:{ OF.Of_match.any with OF.Of_match.in_port = Some 1 });
  Alcotest.(check (option int)) "old winner back after delete" (Some 10) (prio ())

(* Shared generators for the randomized equivalence suites. *)

let eq_macs = [| "02:00:00:00:00:01"; "02:00:00:00:00:02"; "02:00:00:00:00:03" |]

let eq_ports = [| 22; 80; 443; 8080 |]

let eq_prefixes = [| "10.0.0.0/8"; "10.0.0.0/24"; "10.0.0.2/32"; "10.0.1.0/24" |]

let random_eth rng =
  let ri n = Random.State.int rng n in
  let pick arr = arr.(ri (Array.length arr)) in
  frame ~src:(pick eq_macs) ~dst:(pick eq_macs) ~dst_port:(pick eq_ports) ()

let random_headers rng =
  P.Headers.of_eth ~in_port:(1 + Random.State.int rng 4) (random_eth rng)

let random_match rng =
  let ri n = Random.State.int rng n in
  let pick arr = arr.(ri (Array.length arr)) in
  if ri 6 = 0 then OF.Of_match.exact_of_headers (random_headers rng)
  else begin
    let mm = ref OF.Of_match.any in
    if ri 3 = 0 then mm := { !mm with OF.Of_match.in_port = Some (1 + ri 4) };
    if ri 3 = 0 then mm := { !mm with OF.Of_match.dl_src = Some (m (pick eq_macs)) };
    if ri 3 = 0 then mm := { !mm with OF.Of_match.dl_dst = Some (m (pick eq_macs)) };
    if ri 2 = 0 then begin
      mm := { !mm with OF.Of_match.dl_type = Some 0x0800 };
      if ri 2 = 0 then
        mm := { !mm with OF.Of_match.nw_dst = Some (pfx (pick eq_prefixes)) };
      if ri 3 = 0 then
        mm := { !mm with OF.Of_match.nw_src = Some (pfx (pick eq_prefixes)) };
      if ri 2 = 0 then begin
        mm := { !mm with OF.Of_match.nw_proto = Some 6 };
        if ri 2 = 0 then mm := { !mm with OF.Of_match.tp_dst = Some (pick eq_ports) }
      end
    end;
    !mm
  end

(* Randomized equivalence: the classifier against the linear reference
   over a mixed add/modify/delete/expire/lookup stream. [now] only moves
   forward, as in the simulator. Both tables see exactly the same calls,
   so their install-order counters stay aligned and winners can be
   compared by (priority, seq). *)
let test_classifier_equivalence () =
  let rng = Random.State.make [| 0xC1A55 |] in
  let ri n = Random.State.int rng n in
  let pick arr = arr.(ri (Array.length arr)) in
  let linear = table ~strategy:N.Flow_table.Linear () in
  let cls = table ~strategy:N.Flow_table.Classifier () in
  let both f =
    let a = f linear in
    let b = f cls in
    a, b
  in
  let now = ref 0. in
  let ident e = e.N.Flow_table.priority, e.N.Flow_table.seq in
  let idents l = List.sort compare (List.map ident l) in
  for step = 1 to 1500 do
    if ri 4 = 0 then now := !now +. float_of_int (ri 3);
    let ctx = Printf.sprintf "step %d" step in
    match ri 10 with
    | 0 | 1 | 2 ->
      let of_match = random_match rng in
      let priority = 10 * ri 8 in
      let actions = [ OF.Action.Output (OF.Action.Physical step) ] in
      let idle = pick [| 0; 0; 2; 5 |]
      and hard = pick [| 0; 0; 3; 7 |] in
      ignore
        (both (fun t ->
             N.Flow_table.add t ~now:!now ~of_match ~priority ~actions
               ~idle_timeout:idle ~hard_timeout:hard ()))
    | 3 ->
      let of_match = random_match rng in
      let actions = [ OF.Action.Output (OF.Action.Physical (10_000 + step)) ] in
      let na, nb = both (fun t -> N.Flow_table.modify t ~of_match ~actions) in
      Alcotest.(check int) (ctx ^ ": modify counts agree") na nb
    | 4 ->
      let of_match = random_match rng in
      let strict = ri 2 = 0 in
      let priority = if ri 2 = 0 then Some (10 * ri 8) else None in
      let ra, rb = both (fun t -> N.Flow_table.delete ~strict ?priority t ~of_match) in
      Alcotest.(check bool) (ctx ^ ": delete sets agree") true
        (idents ra = idents rb)
    | 5 ->
      let ra, rb = both (fun t -> N.Flow_table.expire t ~now:!now) in
      Alcotest.(check bool) (ctx ^ ": expiry sets agree") true
        (idents ra = idents rb)
    | _ -> (
      let h = random_headers rng in
      let ra, rb = both (fun t -> N.Flow_table.lookup t ~now:!now h) in
      match ra, rb with
      | None, None -> ()
      | Some ea, Some eb when ident ea = ident eb ->
        (* hit both winners so idle state stays in step on both sides *)
        if ri 2 = 0 then begin
          N.Flow_table.hit ea ~now:!now ~bytes:64;
          N.Flow_table.hit eb ~now:!now ~bytes:64
        end
      | _ ->
        let show = function
          | None -> "none"
          | Some e ->
            Printf.sprintf "p%d#%d" e.N.Flow_table.priority e.N.Flow_table.seq
        in
        Alcotest.failf "%s: winners disagree (linear %s, classifier %s)" ctx
          (show ra) (show rb))
  done;
  (* final state identical, in the deterministic [entries] order *)
  let ea, eb = both (fun t -> List.map ident (N.Flow_table.entries t)) in
  Alcotest.(check bool) "final tables identical" true (ea = eb);
  Alcotest.(check int) "lengths agree" (N.Flow_table.length linear)
    (N.Flow_table.length cls)

(* Whole-pipeline equivalence: two multi-table switches driven with the
   same flow mods and frames must produce identical effect streams,
   whichever datapath backs them. *)
let test_pipeline_equivalence () =
  let rng = Random.State.make [| 0xD47A9 |] in
  let ri n = Random.State.int rng n in
  let pick arr = arr.(ri (Array.length arr)) in
  let mk strategy =
    N.Sim_switch.create ~n_tables:2 ~strategy ~n_ports:4 ~dpid:5L ()
  in
  let lin = mk N.Flow_table.Linear in
  let cls = mk N.Flow_table.Classifier in
  let both f =
    let a = f lin in
    let b = f cls in
    a, b
  in
  let now = ref 0. in
  for step = 1 to 400 do
    if ri 3 = 0 then now := !now +. (0.5 *. float_of_int (ri 4));
    match ri 10 with
    | 0 | 1 ->
      let table_id = ri 2 in
      let of_match = random_match rng in
      let priority = 10 * ri 8 in
      let actions =
        match ri 4 with
        | 0 -> [] (* explicit drop *)
        | 1 -> [ OF.Action.Output OF.Action.Flood ]
        | 2 ->
          [ OF.Action.Set_vlan (1 + ri 100);
            OF.Action.Output (OF.Action.Physical (1 + ri 4)) ]
        | _ -> [ OF.Action.Output (OF.Action.Physical (1 + ri 4)) ]
      in
      let idle = pick [| 0; 0; 2 |]
      and hard = pick [| 0; 0; 4 |] in
      let ra, rb =
        both (fun s ->
            N.Sim_switch.flow_add s ~table_id ~now:!now ~of_match ~priority
              ~actions ~idle_timeout:idle ~hard_timeout:hard ())
      in
      Alcotest.(check bool) (Printf.sprintf "step %d: adds agree" step) true
        (ra = rb)
    | 2 ->
      let of_match = random_match rng in
      let strict = ri 2 = 0 in
      let ra, rb =
        both (fun s -> List.length (N.Sim_switch.flow_delete s ~strict ~of_match ()))
      in
      Alcotest.(check int) (Printf.sprintf "step %d: delete counts" step) ra rb
    | 3 ->
      let ra, rb =
        both (fun s -> List.length (N.Sim_switch.expire_flows s ~now:!now))
      in
      Alcotest.(check int) (Printf.sprintf "step %d: expiry counts" step) ra rb
    | _ ->
      let f = random_eth rng in
      let in_port = 1 + ri 4 in
      let ra, rb = both (fun s -> N.Sim_switch.receive_frame s ~now:!now ~in_port f) in
      if ra <> rb then Alcotest.failf "step %d: pipelines diverge" step
  done;
  let ta, tb =
    both (fun s ->
        List.concat_map
          (fun i ->
            match N.Sim_switch.table s i with
            | Some t ->
              List.map
                (fun e -> i, e.N.Flow_table.priority, e.N.Flow_table.seq)
                (N.Flow_table.entries t)
            | None -> [])
          [ 0; 1 ])
  in
  Alcotest.(check bool) "final pipelines identical" true (ta = tb)

(* Priorities repeat and may descend, so the same match lands at two
   priorities and exact rules tie wildcard ones, in both install orders. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"lookup strategies agree" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 4)
           (list_size (int_range 0 12)
              (triple (int_range 1 4) (int_range 0 3) (int_range 0 3)))))
    (fun (port, rules) ->
      let build strategy =
        let t = table ~strategy () in
        List.iteri
          (fun i (in_port, kind, prio) ->
            let of_match =
              match kind with
              | 0 -> OF.Of_match.any
              | 1 -> { OF.Of_match.any with OF.Of_match.in_port = Some in_port }
              | 2 -> { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 }
              | _ -> OF.Of_match.exact_of_headers (headers ~in_port ())
            in
            add ~priority:(10 * prio) t of_match
              [ OF.Action.Output (OF.Action.Physical i) ])
          rules;
        t
      in
      let h = headers ~in_port:port () in
      let result t =
        Option.map
          (fun e -> e.N.Flow_table.priority, e.N.Flow_table.actions)
          (N.Flow_table.lookup t ~now:0. h)
      in
      result (build N.Flow_table.Linear) = result (build N.Flow_table.Classifier))

(* --- switch ---------------------------------------------------------------------- *)

let sw ?(n_ports = 4) () = N.Sim_switch.create ~n_ports ~dpid:7L ()

let flow s ?(priority = 100) of_match actions =
  match N.Sim_switch.flow_add s ~now:0. ~of_match ~priority ~actions () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_switch_forward () =
  let s = sw () in
  flow s OF.Of_match.any [ OF.Action.Output (OF.Action.Physical 2) ];
  match N.Sim_switch.receive_frame s ~now:0. ~in_port:1 (frame ()) with
  | [ N.Sim_switch.Transmit { out_port = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected forward to port 2"

let test_switch_miss_packet_in () =
  let s = sw () in
  match N.Sim_switch.receive_frame s ~now:0. ~in_port:3 (frame ()) with
  | [ N.Sim_switch.Deliver_to_controller pi ] ->
    Alcotest.(check int) "in_port" 3 pi.in_port;
    Alcotest.(check bool) "reason miss" true (pi.reason = OF.Of_types.No_match)
  | _ -> Alcotest.fail "expected packet-in"

let test_switch_buffering () =
  let s = N.Sim_switch.create ~miss_send_len:32 ~dpid:7L () in
  let big =
    P.Eth.make ~src:(m "02:00:00:00:00:01") ~dst:(m "02:00:00:00:00:02")
      (P.Eth.Raw (0x9999, String.make 200 'x'))
  in
  match N.Sim_switch.receive_frame s ~now:0. ~in_port:1 big with
  | [ N.Sim_switch.Deliver_to_controller pi ] -> (
    Alcotest.(check int) "truncated" 32 (String.length pi.data);
    Alcotest.(check bool) "buffered" true (pi.buffer_id <> None);
    Alcotest.(check int) "total_len" (P.Eth.size big) pi.total_len;
    match
      N.Sim_switch.inject s ~now:0. ~buffer_id:pi.buffer_id ~data:""
        ~in_port:None ~actions:[ OF.Action.Output (OF.Action.Physical 4) ]
    with
    | [ N.Sim_switch.Transmit { out_port = 4; frame = out } ] ->
      Alcotest.(check bool) "full frame released" true (P.Eth.equal big out);
      Alcotest.(check bool) "buffer consumed" true
        (N.Sim_switch.pop_buffer s (Option.get pi.buffer_id) = None)
    | _ -> Alcotest.fail "packet-out failed")
  | _ -> Alcotest.fail "expected buffered packet-in"

let test_switch_flood () =
  let s = sw ~n_ports:4 () in
  flow s OF.Of_match.any [ OF.Action.Output OF.Action.Flood ];
  let outs =
    N.Sim_switch.receive_frame s ~now:0. ~in_port:2 (frame ())
    |> List.filter_map (function
         | N.Sim_switch.Transmit { out_port; _ } -> Some out_port
         | _ -> None)
  in
  Alcotest.(check (list int)) "all but ingress" [ 1; 3; 4 ] outs;
  flow s ~priority:200 OF.Of_match.any [ OF.Action.Output OF.Action.All ];
  let outs_all =
    N.Sim_switch.receive_frame s ~now:0. ~in_port:2 (frame ())
    |> List.filter_map (function
         | N.Sim_switch.Transmit { out_port; _ } -> Some out_port
         | _ -> None)
  in
  Alcotest.(check (list int)) "all ports" [ 1; 2; 3; 4 ] outs_all

let test_switch_port_down_drops () =
  let s = sw () in
  flow s OF.Of_match.any [ OF.Action.Output (OF.Action.Physical 2) ];
  N.Sim_switch.set_admin_down s 2 true;
  Alcotest.(check int) "tx suppressed" 0
    (List.length (N.Sim_switch.receive_frame s ~now:0. ~in_port:1 (frame ())));
  N.Sim_switch.set_admin_down s 1 true;
  Alcotest.(check int) "rx dropped" 0
    (List.length (N.Sim_switch.receive_frame s ~now:0. ~in_port:1 (frame ())));
  match N.Sim_switch.port_stats s (Some 1) with
  | [ st ] ->
    Alcotest.(check int64) "rx_dropped counted" 1L
      st.OF.Of_types.Port_stats.rx_dropped
  | _ -> Alcotest.fail "no stats"

let test_switch_rewrite_then_output () =
  let s = sw () in
  flow s OF.Of_match.any
    [ OF.Action.Set_dl_dst (m "02:ff:ff:ff:ff:ff");
      OF.Action.Output (OF.Action.Physical 2);
      OF.Action.Set_dl_dst (m "02:ee:ee:ee:ee:ee");
      OF.Action.Output (OF.Action.Physical 3) ];
  match N.Sim_switch.receive_frame s ~now:0. ~in_port:1 (frame ()) with
  | [ N.Sim_switch.Transmit t1; N.Sim_switch.Transmit t2 ] ->
    Alcotest.(check string) "first copy first rewrite" "02:ff:ff:ff:ff:ff"
      (P.Mac.to_string t1.frame.P.Eth.dst);
    Alcotest.(check string) "second copy second rewrite" "02:ee:ee:ee:ee:ee"
      (P.Mac.to_string t2.frame.P.Eth.dst)
  | _ -> Alcotest.fail "expected two transmissions"

let test_switch_explicit_drop () =
  let s = sw () in
  flow s OF.Of_match.any [];
  Alcotest.(check int) "dropped silently" 0
    (List.length (N.Sim_switch.receive_frame s ~now:0. ~in_port:1 (frame ())))

let test_switch_queues () =
  let s = sw () in
  (* 1 Mbit/s queue: ~125000 bytes/s budget, 1s burst *)
  N.Sim_switch.add_queue s ~port:2 ~queue_id:1 ~rate_mbps:1;
  flow s OF.Of_match.any [ OF.Action.Enqueue { port = 2; queue_id = 1 } ];
  let big =
    P.Eth.make ~src:(m "02:00:00:00:00:01") ~dst:(m "02:00:00:00:00:02")
      (P.Eth.Raw (0x9999, String.make 60_000 'x'))
  in
  (* burst capacity admits ~2 of these 60 KB frames at t=0, drops the rest *)
  let sent = ref 0 in
  for _ = 1 to 5 do
    match N.Sim_switch.receive_frame s ~now:0. ~in_port:1 big with
    | [ N.Sim_switch.Transmit { out_port = 2; _ } ] -> incr sent
    | [] -> ()
    | _ -> Alcotest.fail "unexpected effect"
  done;
  Alcotest.(check int) "burst admits 2" 2 !sent;
  (match N.Sim_switch.queue_stats s ~port:2 with
  | [ q ] ->
    Alcotest.(check int64) "tx counted" 2L q.N.Sim_switch.tx_packets;
    Alcotest.(check int64) "drops counted" 3L q.N.Sim_switch.dropped
  | _ -> Alcotest.fail "queue stats missing");
  (* a second later the bucket refills *)
  (match N.Sim_switch.receive_frame s ~now:1.0 ~in_port:1 big with
  | [ N.Sim_switch.Transmit _ ] -> ()
  | _ -> Alcotest.fail "bucket did not refill");
  (* an unconfigured queue degrades to a plain output *)
  flow s ~priority:500 OF.Of_match.any
    [ OF.Action.Enqueue { port = 3; queue_id = 9 } ];
  match N.Sim_switch.receive_frame s ~now:2. ~in_port:1 big with
  | [ N.Sim_switch.Transmit { out_port = 3; _ } ] -> ()
  | _ -> Alcotest.fail "missing queue should degrade to output"

(* Regression: a resync diff must not count entries that are past their
   timeout but not yet reaped by an [expire] sweep. [flow_stats ~now]
   applies lookup-side expiry; the raw (no [now]) report and [entries]
   still hold the corpse for the sweep to find. *)
let test_switch_flow_stats_lookup_expiry () =
  let s = sw () in
  let tp80 = { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 } in
  (match
     N.Sim_switch.flow_add s ~now:0. ~of_match:tp80 ~priority:100 ~actions:[]
       ~hard_timeout:3 ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  flow s ~priority:10 OF.Of_match.any [];
  let stats ?now () =
    List.length (N.Sim_switch.flow_stats s ?now ~of_match:OF.Of_match.any ())
  in
  Alcotest.(check int) "both live at 1s" 2 (stats ~now:1. ());
  (* past the hard timeout, with no expire sweep in between *)
  Alcotest.(check int) "expired excluded with now" 1 (stats ~now:4. ());
  Alcotest.(check int) "raw report still holds the corpse" 2 (stats ());
  (match N.Sim_switch.table s 0 with
  | None -> Alcotest.fail "no table"
  | Some t ->
    Alcotest.(check int) "entries keeps it too" 2
      (List.length (N.Flow_table.entries t));
    Alcotest.(check int) "live_entries drops it" 1
      (List.length (N.Flow_table.live_entries t ~now:4.));
    List.iter
      (fun e ->
        Alcotest.(check bool)
          (Printf.sprintf "is_expired flags p%d correctly" e.N.Flow_table.priority)
          (e.N.Flow_table.priority = 100)
          (N.Flow_table.is_expired e ~now:4.))
      (N.Flow_table.entries t));
  Alcotest.(check int) "expire still reaps the corpse" 1
    (List.length (N.Sim_switch.expire_flows s ~now:4.))

(* Same property over the wire: the agent's stats reply reflects
   lookup-side expiry even when the request beats the expiry sweep. *)
let test_agent_stats_exclude_expired () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V10 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  let fm ~priority ~hard =
    OF.Msg.Flow_mod
      { table_id = 0;
        of_match = { OF.Of_match.any with OF.Of_match.tp_dst = Some (priority + 1) };
        cookie = 0L; command = OF.Msg.Add; idle_timeout = 0;
        hard_timeout = hard; priority; buffer_id = None;
        notify_removal = false; actions = [] }
  in
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:1l (fm ~priority:9 ~hard:2));
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:2l (fm ~priority:5 ~hard:0));
  N.Of_agent.step agent ~now:0.;
  ignore (N.Control_channel.recv_all ctl_end);
  N.Control_channel.send ctl_end
    (OF.Of10.encode ~xid:3l
       (OF.Msg.Stats_request
          (OF.Msg.Flow_stats_req { table_id = None; of_match = OF.Of_match.any })));
  (* now:3 is past p9's hard timeout; the same step serves the reply *)
  N.Of_agent.step agent ~now:3.;
  let reported =
    List.concat_map
      (fun raw ->
        match OF.Of10.decode raw with
        | Ok (3l, OF.Msg.Stats_reply (OF.Msg.Flow_stats_rep rows)) ->
          List.map (fun (_, (r : OF.Of_types.Flow_stats.t)) -> r.priority) rows
        | _ -> [])
      (N.Control_channel.recv_all ctl_end)
  in
  Alcotest.(check (list int)) "only the live flow reported" [ 5 ] reported

let test_switch_port_change_notify () =
  let s = sw () in
  let events = ref [] in
  N.Sim_switch.on_port_change s (fun reason info ->
      events := (reason, info.OF.Of_types.Port_info.port_no) :: !events);
  N.Sim_switch.add_port s 9;
  N.Sim_switch.set_admin_down s 9 true;
  N.Sim_switch.remove_port s 9;
  Alcotest.(check bool) "add seen" true (List.mem (OF.Of_types.Port_add, 9) !events);
  Alcotest.(check bool) "modify seen" true
    (List.mem (OF.Of_types.Port_modify, 9) !events);
  Alcotest.(check bool) "delete seen" true
    (List.mem (OF.Of_types.Port_delete, 9) !events)

(* --- host ------------------------------------------------------------------------- *)

let test_host_arp_reply () =
  let h =
    N.Sim_host.create ~ip:(a "10.0.0.2") ~name:"h" ~mac:(m "02:00:00:00:00:02") ()
  in
  let req =
    P.Builder.arp_request ~src_mac:(m "02:00:00:00:00:01") ~src_ip:(a "10.0.0.1")
      ~target:(a "10.0.0.2")
  in
  (match N.Sim_host.receive h ~now:0. req with
  | [ reply ] -> (
    match reply.P.Eth.payload with
    | P.Eth.Arp arp -> Alcotest.(check bool) "is reply" true (arp.P.Arp.op = P.Arp.Reply)
    | _ -> Alcotest.fail "not arp")
  | _ -> Alcotest.fail "no reply");
  let other =
    P.Builder.arp_request ~src_mac:(m "02:00:00:00:00:01") ~src_ip:(a "10.0.0.1")
      ~target:(a "10.0.0.99")
  in
  Alcotest.(check int) "ignores others" 0
    (List.length (N.Sim_host.receive h ~now:0. other))

let test_host_ping_flow () =
  let h1 =
    N.Sim_host.create ~ip:(a "10.0.0.1") ~name:"h1" ~mac:(m "02:00:00:00:00:01") ()
  in
  let h2 =
    N.Sim_host.create ~ip:(a "10.0.0.2") ~name:"h2" ~mac:(m "02:00:00:00:00:02") ()
  in
  let out1 = N.Sim_host.ping h1 ~now:0. ~dst:(a "10.0.0.2") ~seq:1 in
  (match out1 with
  | [ { P.Eth.payload = P.Eth.Arp _; _ } ] -> ()
  | _ -> Alcotest.fail "expected arp probe");
  let reply = List.concat_map (N.Sim_host.receive h2 ~now:0.001) out1 in
  let echo = List.concat_map (N.Sim_host.receive h1 ~now:0.002) reply in
  (match echo with
  | [ { P.Eth.payload = P.Eth.Ipv4 { P.Ipv4.payload = P.Ipv4.Icmp _; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "expected icmp after arp resolution");
  let pong = List.concat_map (N.Sim_host.receive h2 ~now:0.003) echo in
  ignore (List.concat_map (N.Sim_host.receive h1 ~now:0.004) pong);
  match N.Sim_host.ping_results h1 with
  | [ r ] ->
    Alcotest.(check int) "seq" 1 r.N.Sim_host.seq;
    Alcotest.(check bool) "rtt positive" true (r.N.Sim_host.rtt > 0.)
  | _ -> Alcotest.fail "ping not recorded"

let test_host_tcp_handshake () =
  let h1 =
    N.Sim_host.create ~ip:(a "10.0.0.1") ~name:"h1" ~mac:(m "02:00:00:00:00:01") ()
  in
  let h2 =
    N.Sim_host.create ~ip:(a "10.0.0.2") ~name:"h2" ~mac:(m "02:00:00:00:00:02") ()
  in
  N.Sim_host.listen h2 22;
  let syn =
    N.Sim_host.tcp_connect h1 ~dst_ip:(a "10.0.0.2")
      ~dst_mac:(m "02:00:00:00:00:02") ~src_port:5000 ~dst_port:22
  in
  let synack = N.Sim_host.receive h2 ~now:0. syn in
  Alcotest.(check int) "synack sent" 1 (List.length synack);
  ignore (List.concat_map (N.Sim_host.receive h1 ~now:0.) synack);
  Alcotest.(check bool) "responder established" true
    (List.mem (22, 5000) (N.Sim_host.tcp_established h2));
  Alcotest.(check bool) "initiator established" true
    (List.mem (5000, 22) (N.Sim_host.tcp_established h1));
  let syn2 =
    N.Sim_host.tcp_connect h1 ~dst_ip:(a "10.0.0.2")
      ~dst_mac:(m "02:00:00:00:00:02") ~src_port:5001 ~dst_port:23
  in
  Alcotest.(check int) "closed port silent" 0
    (List.length (N.Sim_host.receive h2 ~now:0. syn2))

(* --- network ---------------------------------------------------------------------- *)

let test_network_delivery () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let h1 =
    N.Sim_host.create ~ip:(a "10.0.0.1") ~name:"h1" ~mac:(m "02:00:00:00:00:01") ()
  in
  let h2 =
    N.Sim_host.create ~ip:(a "10.0.0.2") ~name:"h2" ~mac:(m "02:00:00:00:00:02") ()
  in
  N.Network.add_host net h1;
  N.Network.add_host net h2;
  N.Network.link net (N.Network.Sw (1L, 1)) (N.Network.Hst "h1");
  N.Network.link net (N.Network.Sw (1L, 2)) (N.Network.Hst "h2");
  (match
     N.Sim_switch.flow_add s ~now:0. ~of_match:OF.Of_match.any ~priority:1
       ~actions:[ OF.Action.Output OF.Action.Flood ] ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  N.Network.send_from_host net "h1"
    (N.Sim_host.ping h1 ~now:0. ~dst:(a "10.0.0.2") ~seq:9);
  N.Network.run net;
  Alcotest.(check int) "ping completed" 1 (List.length (N.Sim_host.ping_results h1));
  Alcotest.(check bool) "time advanced" true (N.Network.now net > 0.)

let test_network_link_failure () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let h1 =
    N.Sim_host.create ~ip:(a "10.0.0.1") ~name:"h1" ~mac:(m "02:00:00:00:00:01") ()
  in
  N.Network.add_host net h1;
  N.Network.link net (N.Network.Sw (1L, 1)) (N.Network.Hst "h1");
  N.Network.set_link_up net (N.Network.Sw (1L, 1)) false;
  (match N.Sim_switch.port s 1 with
  | Some info ->
    Alcotest.(check bool) "carrier down" true info.OF.Of_types.Port_info.link_down
  | None -> Alcotest.fail "port missing");
  N.Network.send_from_host net "h1" [ frame () ];
  N.Network.run net;
  let _, dropped = N.Network.stats net in
  Alcotest.(check int) "frame dropped on dead link" 1 dropped;
  N.Network.set_link_up net (N.Network.Sw (1L, 1)) true;
  match N.Sim_switch.port s 1 with
  | Some info ->
    Alcotest.(check bool) "carrier restored" false info.OF.Of_types.Port_info.link_down
  | None -> Alcotest.fail "port missing"

let test_network_peer_of () =
  let built = N.Topo_gen.linear 2 in
  let links = N.Network.link_endpoints built.net in
  Alcotest.(check int) "3 links" 3 (List.length links);
  match N.Network.peer_of built.net (N.Network.Sw (1L, 1)) with
  | Some (N.Network.Sw (2L, 1)) -> ()
  | _ -> Alcotest.fail "inter-switch wiring wrong"

(* --- topology generators ------------------------------------------------------------ *)

let count_switches (built : N.Topo_gen.built) = List.length built.dpids

let count_hosts (built : N.Topo_gen.built) = List.length built.host_names

let test_topo_shapes () =
  let lin = N.Topo_gen.linear ~hosts_per_switch:2 3 in
  Alcotest.(check int) "linear switches" 3 (count_switches lin);
  Alcotest.(check int) "linear hosts" 6 (count_hosts lin);
  let ring = N.Topo_gen.ring 4 in
  Alcotest.(check int) "ring switches" 4 (count_switches ring);
  Alcotest.(check int) "ring links" (4 + 4)
    (List.length (N.Network.link_endpoints ring.net));
  let star = N.Topo_gen.star ~leaves:5 () in
  Alcotest.(check int) "star switches" 6 (count_switches star);
  let tree = N.Topo_gen.tree ~fanout:2 ~depth:3 () in
  Alcotest.(check int) "tree switches" 7 (count_switches tree);
  Alcotest.(check int) "tree hosts at leaves" 4 (count_hosts tree)

let test_topo_fat_tree () =
  let ft = N.Topo_gen.fat_tree ~k:4 () in
  Alcotest.(check int) "fat-tree switches" 20 (count_switches ft);
  Alcotest.(check int) "fat-tree hosts" 16 (count_hosts ft);
  (* exact counts at the literature sizes: 5k²/4 switches, k³/4 hosts *)
  List.iter
    (fun k ->
      let ft = N.Topo_gen.fat_tree ~k () in
      Alcotest.(check int)
        (Printf.sprintf "k=%d switches" k)
        (5 * k * k / 4) (count_switches ft);
      Alcotest.(check int)
        (Printf.sprintf "k=%d hosts" k)
        (k * k * k / 4) (count_hosts ft);
      (* edge-agg k³/4 + agg-core k³/4 + host links k³/4 *)
      Alcotest.(check int)
        (Printf.sprintf "k=%d links" k)
        (3 * k * k * k / 4)
        (List.length (N.Network.link_endpoints ft.N.Topo_gen.net)))
    [ 4; 8; 16 ];
  (* host density is a knob: hosts_per_edge overrides the k/2 default *)
  let dense = N.Topo_gen.fat_tree ~k:4 ~hosts_per_edge:3 () in
  Alcotest.(check int) "hosts_per_edge switches" 20 (count_switches dense);
  Alcotest.(check int) "hosts_per_edge hosts" 24 (count_hosts dense);
  let bare = N.Topo_gen.fat_tree ~k:4 ~hosts_per_edge:0 () in
  Alcotest.(check int) "hostless fabric" 0 (count_hosts bare);
  (* invalid k raises Invalid_argument naming the offending value *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "k=%d rejected" k)
        true
        (try
           ignore (N.Topo_gen.fat_tree ~k ());
           false
         with Invalid_argument msg ->
           let needle = Printf.sprintf "(got %d)" k in
           let ll = String.length needle in
           let found = ref false in
           for i = 0 to String.length msg - ll do
             if String.sub msg i ll = needle then found := true
           done;
           !found))
    [ 3; 0; -2 ]

let test_topo_clos () =
  let c = N.Topo_gen.clos ~spines:4 ~leaves:8 ~hosts_per_leaf:2 () in
  Alcotest.(check int) "clos switches" 12 (count_switches c);
  Alcotest.(check int) "clos hosts" 16 (count_hosts c);
  Alcotest.(check int) "clos links" ((4 * 8) + 16)
    (List.length (N.Network.link_endpoints c.N.Topo_gen.net));
  Alcotest.(check bool) "spines must be positive" true
    (try
       ignore (N.Topo_gen.clos ~spines:0 ());
       false
     with Invalid_argument _ -> true)

(* --- object pool ----------------------------------------------------------- *)

let test_pool_reuse () =
  let made = ref 0 in
  let pool =
    N.Pool.create ~capacity:4
      ~make:(fun () -> incr made; ref 0)
      ()
  in
  let a = N.Pool.acquire pool in
  let b = N.Pool.acquire pool in
  Alcotest.(check int) "dry free list allocates" 2 !made;
  Alcotest.(check int) "in_use" 2 (N.Pool.in_use pool);
  Alcotest.(check int) "free" 0 (N.Pool.free pool);
  N.Pool.release pool a;
  N.Pool.release pool b;
  Alcotest.(check int) "released to free list" 2 (N.Pool.free pool);
  let c = N.Pool.acquire pool in
  Alcotest.(check int) "reacquire allocates nothing" 2 !made;
  Alcotest.(check int) "reused counted" 1 (N.Pool.reused pool);
  Alcotest.(check bool) "recycled object is one of ours" true (c == a || c == b);
  Alcotest.(check int) "allocated is lifetime makes" 2 (N.Pool.allocated pool)

let test_pool_capacity_bounds () =
  let pool = N.Pool.create ~capacity:1 ~make:(fun () -> ref 0) () in
  let xs = List.init 3 (fun _ -> N.Pool.acquire pool) in
  List.iter (N.Pool.release pool) xs;
  Alcotest.(check int) "free list capped at capacity" 1 (N.Pool.free pool);
  ignore (N.Pool.acquire pool);
  ignore (N.Pool.acquire pool);
  Alcotest.(check int) "one reuse then a fresh make" 4 (N.Pool.allocated pool);
  Alcotest.(check int) "reused" 1 (N.Pool.reused pool)

let test_topo_random_connected () =
  let r = N.Topo_gen.random ~seed:7 ~extra_links:3 8 in
  Alcotest.(check int) "switches" 8 (count_switches r);
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (ea, eb) ->
      match ea, eb with
      | N.Network.Sw (x, _), N.Network.Sw (y, _) ->
        Hashtbl.add adj x y;
        Hashtbl.add adj y x
      | _ -> ())
    (N.Network.link_endpoints r.net);
  let visited = Hashtbl.create 16 in
  let rec dfs v =
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.replace visited v ();
      List.iter dfs (Hashtbl.find_all adj v)
    end
  in
  dfs 1L;
  Alcotest.(check int) "connected" 8 (Hashtbl.length visited);
  let r2 = N.Topo_gen.random ~seed:7 ~extra_links:3 8 in
  Alcotest.(check int) "same link count for same seed"
    (List.length (N.Network.link_endpoints r.net))
    (List.length (N.Network.link_endpoints r2.net))

(* --- control channel & agent --------------------------------------------------------- *)

let test_control_channel () =
  let sw_end, ctl_end = N.Control_channel.create () in
  N.Control_channel.send ctl_end "hello";
  N.Control_channel.send ctl_end "world";
  Alcotest.(check int) "pending" 2 (N.Control_channel.pending sw_end);
  Alcotest.(check (list string)) "fifo" [ "hello"; "world" ]
    (N.Control_channel.recv_all sw_end);
  Alcotest.(check bool) "empty now" true (N.Control_channel.recv sw_end = None);
  Alcotest.(check int) "bytes counted" 10 (N.Control_channel.bytes_sent ctl_end)

let test_agent_handshake_v10 () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:3 ~dpid:42L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V10 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:1l OF.Msg.Hello);
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:2l OF.Msg.Features_request);
  N.Of_agent.step agent ~now:0.;
  let replies =
    List.filter_map
      (fun raw -> Result.to_option (OF.Of10.decode raw))
      (N.Control_channel.recv_all ctl_end)
  in
  match replies with
  | [ (_, OF.Msg.Hello); (xid, OF.Msg.Features_reply f) ] ->
    Alcotest.(check int32) "xid echoed" 2l xid;
    Alcotest.(check int64) "dpid" 42L f.datapath_id;
    Alcotest.(check (option int)) "ports" (Some 3)
      (Option.map List.length f.ports)
  | _ -> Alcotest.failf "unexpected replies (%d)" (List.length replies)

let test_agent_flow_mod_and_echo () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V10 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  let fm =
    OF.Msg.Flow_mod
      { table_id = 0; of_match = OF.Of_match.any; cookie = 0L;
        command = OF.Msg.Add; idle_timeout = 0; hard_timeout = 0; priority = 9;
        buffer_id = None;
        notify_removal = false;
        actions = [ OF.Action.Output (OF.Action.Physical 2) ] }
  in
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:5l fm);
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:6l (OF.Msg.Echo_request "x"));
  N.Of_agent.step agent ~now:0.;
  Alcotest.(check int) "flow installed" 1
    (match N.Sim_switch.table s 0 with
    | Some t -> N.Flow_table.length t
    | None -> -1);
  let echoed =
    List.exists
      (fun raw ->
        match OF.Of10.decode raw with
        | Ok (6l, OF.Msg.Echo_reply "x") -> true
        | _ -> false)
      (N.Control_channel.recv_all ctl_end)
  in
  Alcotest.(check bool) "echo replied" true echoed

let test_agent_v13_port_desc () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:3L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V13 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  N.Control_channel.send ctl_end
    (OF.Of13.encode ~xid:1l (OF.Msg.Stats_request OF.Msg.Port_desc_req));
  N.Of_agent.step agent ~now:0.;
  let got_ports =
    List.exists
      (fun raw ->
        match OF.Of13.decode raw with
        | Ok (_, OF.Msg.Stats_reply (OF.Msg.Port_desc_rep ports)) ->
          List.length ports = 2
        | _ -> false)
      (N.Control_channel.recv_all ctl_end)
  in
  Alcotest.(check bool) "port desc served" true got_ports

let test_agent_delete_strict () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V10 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  let fm ~priority command =
    OF.Msg.Flow_mod
      { table_id = 0; of_match = { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 };
        cookie = 0L; command; idle_timeout = 0; hard_timeout = 0; priority;
        buffer_id = None; notify_removal = false; actions = [] }
  in
  let len () =
    match N.Sim_switch.table s 0 with
    | Some t -> N.Flow_table.length t
    | None -> -1
  in
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:1l (fm ~priority:9 OF.Msg.Add));
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:2l (fm ~priority:10 OF.Msg.Add));
  N.Of_agent.step agent ~now:0.;
  Alcotest.(check int) "two installed" 2 (len ());
  (* DELETE_STRICT takes only the entry at the exact priority *)
  N.Control_channel.send ctl_end
    (OF.Of10.encode ~xid:3l (fm ~priority:10 OF.Msg.Delete_strict));
  N.Of_agent.step agent ~now:0.;
  Alcotest.(check int) "strict removed one" 1 (len ());
  (match N.Sim_switch.table s 0 with
  | Some t -> (
    match N.Flow_table.entries t with
    | [ e ] -> Alcotest.(check int) "survivor is p9" 9 e.N.Flow_table.priority
    | _ -> Alcotest.fail "expected one entry")
  | None -> Alcotest.fail "no table");
  (* plain DELETE ignores priority and sweeps the rest *)
  N.Control_channel.send ctl_end
    (OF.Of10.encode ~xid:4l (fm ~priority:0 OF.Msg.Delete));
  N.Of_agent.step agent ~now:0.;
  Alcotest.(check int) "non-strict removed rest" 0 (len ())

(* A bare OF 1.3 agent on a one-table switch; [exchange] sends
   messages and returns the decoded replies with the raw bytes. *)
let agent13 () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V13 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  let exchange raws =
    List.iter (N.Control_channel.send ctl_end) raws;
    N.Of_agent.step agent ~now:0.;
    List.map
      (fun raw -> raw, OF.Of13.decode raw)
      (N.Control_channel.recv_all ctl_end)
  in
  s, exchange

let table0 s =
  match N.Sim_switch.table s 0 with
  | Some t -> N.Flow_table.entries t
  | None -> Alcotest.fail "no table 0"

(* The OFPET_* number of an encoded error message. *)
let wire_error_type raw = (Char.code raw.[8] lsl 8) lor Char.code raw.[9]

let is_error ty = function
  | _, Ok (_, OF.Msg.Error_msg e) -> e.ty = ty
  | _ -> false

(* MODIFY that matches nothing installs the flow-mod's own entry
   (priority, cookie, timeouts, notify flag), not a default one; MODIFY
   naming a missing table is answered with OFPET_FLOW_MOD_FAILED (5 in
   OF 1.3), exactly as ADD is. *)
let test_agent_modify () =
  let s, exchange = agent13 () in
  let fm ?(table_id = 0) command =
    OF.Of13.encode ~xid:(if table_id = 0 then 1l else 2l)
      (OF.Msg.Flow_mod
         { table_id; of_match = { OF.Of_match.any with OF.Of_match.tp_dst = Some 80 };
           cookie = 7L; command; idle_timeout = 5; hard_timeout = 0;
           priority = 100; buffer_id = None; notify_removal = true;
           actions = [ OF.Action.Output (OF.Action.Physical 2) ] })
  in
  Alcotest.(check int) "no reply to a good modify" 0
    (List.length (exchange [ fm OF.Msg.Modify ]));
  (match table0 s with
  | [ e ] ->
    Alcotest.(check int) "priority" 100 e.N.Flow_table.priority;
    Alcotest.(check int64) "cookie" 7L e.N.Flow_table.cookie;
    Alcotest.(check int) "idle timeout" 5 e.N.Flow_table.idle_timeout;
    Alcotest.(check bool) "notify" true e.N.Flow_table.notify_removal
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  List.iter
    (fun command ->
      match exchange [ fm ~table_id:9 command ] with
      | [ reply ] ->
        Alcotest.(check bool) "flow_mod_failed" true
          (is_error OF.Msg.Flow_mod_failed reply);
        Alcotest.(check (option int32)) "answers the request's xid" (Some 2l)
          (Result.to_option (Result.map fst (snd reply)));
        Alcotest.(check int) "OFPET_FLOW_MOD_FAILED" 5 (wire_error_type (fst reply))
      | l -> Alcotest.failf "expected 1 error, got %d replies" (List.length l))
    [ OF.Msg.Modify; OF.Msg.Add ];
  Alcotest.(check int) "nothing more installed" 1 (List.length (table0 s))

(* A flow-mod whose apply-actions is followed by a goto-table is
   refused with OFPET_BAD_INSTRUCTION (3): the switch models no goto,
   so installing the actions alone would silently change the rule. *)
let test_agent_refuses_goto () =
  let s, exchange = agent13 () in
  let raw =
    OF.Of13.encode ~xid:4l
      (OF.Msg.Flow_mod
         { table_id = 0; of_match = OF.Of_match.any; cookie = 0L;
           command = OF.Msg.Add; idle_timeout = 0; hard_timeout = 0;
           priority = 1; buffer_id = None; notify_removal = false;
           actions = [ OF.Action.Output (OF.Action.Physical 2) ] })
  in
  (* OFPIT_GOTO_TABLE 3, appended to the body; header length fixed. *)
  let b = Bytes.of_string (raw ^ "\000\001\000\008\003\000\000\000") in
  Bytes.set_uint16_be b 2 (Bytes.length b);
  match exchange [ Bytes.to_string b ] with
  | [ reply ] ->
    Alcotest.(check bool) "bad_instruction" true
      (is_error OF.Msg.Bad_instruction reply);
    Alcotest.(check int) "OFPET_BAD_INSTRUCTION" 3 (wire_error_type (fst reply));
    Alcotest.(check int) "nothing installed" 0 (List.length (table0 s))
  | l -> Alcotest.failf "expected 1 error, got %d replies" (List.length l)

(* A stats request naming a table the switch lacks gets an empty reply;
   it used to index past the table array. *)
let test_agent_stats_missing_table () =
  let _, exchange = agent13 () in
  match
    exchange
      [ OF.Of13.encode ~xid:5l
          (OF.Msg.Stats_request
             (OF.Msg.Flow_stats_req { table_id = Some 9; of_match = OF.Of_match.any }))
      ]
  with
  | [ (_, Ok (5l, OF.Msg.Stats_reply (OF.Msg.Flow_stats_rep []))) ] -> ()
  | l -> Alcotest.failf "expected one empty reply, got %d replies" (List.length l)

let test_agent_flow_removed_notification () =
  let net = N.Network.create () in
  let s = N.Sim_switch.create ~n_ports:2 ~dpid:1L () in
  N.Network.add_switch net s;
  let sw_end, ctl_end = N.Control_channel.create () in
  let agent =
    N.Of_agent.create ~dialect:OF.Dialect.V10 ~switch:s ~endpoint:sw_end
      ~network:net ()
  in
  let fm =
    OF.Msg.Flow_mod
      { table_id = 0; of_match = OF.Of_match.any; cookie = 77L; command = OF.Msg.Add;
        idle_timeout = 0; hard_timeout = 2; priority = 9; buffer_id = None;
        notify_removal = true; actions = [] }
  in
  N.Control_channel.send ctl_end (OF.Of10.encode ~xid:1l fm);
  N.Of_agent.step agent ~now:0.;
  ignore (N.Control_channel.recv_all ctl_end);
  (* Before the hard timeout: nothing. *)
  N.Of_agent.step agent ~now:1.;
  Alcotest.(check int) "quiet before timeout" 0 (N.Control_channel.pending ctl_end);
  N.Of_agent.step agent ~now:3.;
  let removed =
    List.exists
      (fun raw ->
        match OF.Of10.decode raw with
        | Ok (_, OF.Msg.Flow_removed fr) ->
          fr.cookie = 77L && fr.reason = OF.Of_types.Hard_timeout_hit
        | _ -> false)
      (N.Control_channel.recv_all ctl_end)
  in
  Alcotest.(check bool) "flow_removed delivered" true removed

(* The event queue's order: [at] first, FIFO [seq] among equal [at]. A
   random push/pop interleaving must pop exactly what a sorted reference
   list says is least, so pops are minima, each element pops once, and
   equal instants pop in push order. *)
type ev = { at : float; seq : int }

let ev_lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let prop_heap_order =
  QCheck.Test.make ~name:"heap pops least, each once" ~count:300
    QCheck.(list (option (int_range 0 5)))
    (fun script ->
      let h = N.Heap.create ~lt:ev_lt in
      let reference = ref [] and next_seq = ref 0 in
      let pop_matches () =
        match N.Heap.pop h, !reference with
        | None, [] -> true
        | Some e, least :: rest when e == least ->
          reference := rest;
          true
        | _ -> false
      in
      List.for_all
        (function
          | Some at ->
            let e = { at = float_of_int at; seq = !next_seq } in
            incr next_seq;
            N.Heap.push h e;
            reference :=
              List.merge (fun a b -> if ev_lt a b then -1 else 1) [ e ] !reference;
            true
          | None -> pop_matches ())
        (* then drain what is left *)
        (script @ List.init (List.length script) (fun _ -> None))
      && N.Heap.length h = 0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_strategies_agree; prop_heap_order ]

let () =
  Alcotest.run "netsim"
    [ ( "flow-table",
        [ Alcotest.test_case "priority" `Quick test_table_priority;
          Alcotest.test_case "replace" `Quick test_table_replace_same_rule;
          Alcotest.test_case "delete subsumption" `Quick test_table_delete_subsumption;
          Alcotest.test_case "modify" `Quick test_table_modify;
          Alcotest.test_case "timeouts" `Quick test_table_timeouts;
          Alcotest.test_case "counters" `Quick test_table_counters;
          Alcotest.test_case "expired entries don't match" `Quick
            test_table_expired_skipped_in_lookup;
          Alcotest.test_case "strict delete" `Quick test_table_strict_delete;
          Alcotest.test_case "entries ordering" `Quick test_table_entries_order;
          Alcotest.test_case "timeout edges" `Quick test_table_timeout_edges ] );
      ( "classifier",
        [ Alcotest.test_case "microflow cache" `Quick test_classifier_microflow;
          Alcotest.test_case "randomized vs linear" `Quick
            test_classifier_equivalence;
          Alcotest.test_case "pipeline vs linear" `Quick
            test_pipeline_equivalence ] );
      ( "switch",
        [ Alcotest.test_case "forward" `Quick test_switch_forward;
          Alcotest.test_case "miss -> packet-in" `Quick test_switch_miss_packet_in;
          Alcotest.test_case "buffering" `Quick test_switch_buffering;
          Alcotest.test_case "flood/all" `Quick test_switch_flood;
          Alcotest.test_case "port down" `Quick test_switch_port_down_drops;
          Alcotest.test_case "rewrite ordering" `Quick test_switch_rewrite_then_output;
          Alcotest.test_case "explicit drop" `Quick test_switch_explicit_drop;
          Alcotest.test_case "qos queues" `Quick test_switch_queues;
          Alcotest.test_case "stats lookup-side expiry" `Quick
            test_switch_flow_stats_lookup_expiry;
          Alcotest.test_case "port notifications" `Quick test_switch_port_change_notify ] );
      ( "host",
        [ Alcotest.test_case "arp reply" `Quick test_host_arp_reply;
          Alcotest.test_case "arp-then-ping" `Quick test_host_ping_flow;
          Alcotest.test_case "tcp handshake" `Quick test_host_tcp_handshake ] );
      ( "network",
        [ Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "link failure" `Quick test_network_link_failure;
          Alcotest.test_case "peer_of" `Quick test_network_peer_of ] );
      ( "topologies",
        [ Alcotest.test_case "shapes" `Quick test_topo_shapes;
          Alcotest.test_case "fat tree" `Quick test_topo_fat_tree;
          Alcotest.test_case "clos" `Quick test_topo_clos;
          Alcotest.test_case "random connected" `Quick test_topo_random_connected ] );
      ( "pool",
        [ Alcotest.test_case "acquire/release reuse" `Quick test_pool_reuse;
          Alcotest.test_case "capacity bounds" `Quick test_pool_capacity_bounds ] );
      ( "agent",
        [ Alcotest.test_case "control channel" `Quick test_control_channel;
          Alcotest.test_case "handshake v10" `Quick test_agent_handshake_v10;
          Alcotest.test_case "flow_mod + echo" `Quick test_agent_flow_mod_and_echo;
          Alcotest.test_case "v13 port desc" `Quick test_agent_v13_port_desc;
          Alcotest.test_case "delete strict" `Quick test_agent_delete_strict;
          Alcotest.test_case "stats exclude expired" `Quick
            test_agent_stats_exclude_expired;
          Alcotest.test_case "flow_removed" `Quick test_agent_flow_removed_notification;
          Alcotest.test_case "modify adds or fails like add" `Quick test_agent_modify;
          Alcotest.test_case "v13 goto refused" `Quick test_agent_refuses_goto;
          Alcotest.test_case "stats for a missing table" `Quick
            test_agent_stats_missing_table ] );
      "properties", qcheck_cases ]
