(* E22 — the policy compiler. What does compiling /yanc/policy cost,
   and is the engine's install actually incremental? Compile wall time
   (min of 5) and emitted-rule counts across policy sizes, then the
   flow_mod bill — measured at the commit queue's own counters — of a
   full install of a 200-clause policy versus a one-clause edit of it.
   The acceptance gate (<= 10%) rides bench-smoke. Writes
   BENCH_policy.json. *)

open Harness

let clause i =
  Printf.sprintf "filter dl_type = 0x0800 && nw_dst = 10.%d.%d.%d ; fwd(%d)"
    (i / 250) (i mod 250) (i mod 7)
    (1 + (i mod 4))

let policy n = String.concat "\n| " (List.init n clause)

let parse text =
  match Policy.Syntax.parse text with
  | Ok ir -> ir
  | Error e -> failwith ("e22: parse: " ^ e)

(* (clauses, min-of-5 compile seconds, rules emitted) *)
let compile_point n =
  let ir = parse (policy n) in
  let rules = ref [] in
  let best =
    min_of 5 (fun () ->
        let t0 = Sys.time () in
        (match Policy.Compile.to_flows ir with
        | Ok r -> rules := r
        | Error e -> failwith ("e22: compile: " ^ e));
        Sys.time () -. t0)
  in
  (n, best, List.length !rules)

(* Full install vs one-clause edit of the same policy, billed at the
   dirty-flow commit queue (adds + deletes actually encoded). *)
let incremental ~n () =
  let built = N.Topo_gen.linear 1 in
  let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  ignore (Yanc.Controller.add_policy_engine ctl);
  Yanc.Controller.run_for ctl 0.3;
  let fs = Yanc.Controller.fs ctl in
  let write text =
    match Fs.write_file fs ~cred (Y.Layout.policy_file "big") text with
    | Ok () -> ()
    | Error e -> failwith ("e22: write: " ^ Vfs.Errno.message e)
  in
  let mods () =
    ctl_count ctl "driver.commit.adds" + ctl_count ctl "driver.commit.deletes"
  in
  let m0 = mods () in
  write (policy n);
  Yanc.Controller.run_for ctl 2.0;
  let full = mods () - m0 in
  let m1 = mods () in
  write
    (String.concat "\n| "
       (List.init n (fun i -> clause (if i = n / 2 then n + 7 else i))));
  Yanc.Controller.run_for ctl 2.0;
  (full, mods () - m1)

(* Random (policy, packet) equivalence checks against the reference
   interpreter — the bench-side slice of the test suite's 500+ proof,
   generated through the concrete syntax so the parser is in the loop. *)
let equivalence ~cases rng =
  let pick xs = List.nth xs (N.Prng.below rng (List.length xs)) in
  let atoms =
    [ "drop"; "id"; "fwd(1)"; "fwd(2)"; "flood"; "controller";
      "dl_vlan := 5"; "nw_tos := 7"; "tp_dst := 8080";
      "filter dl_type = 0x0800"; "filter tp_dst = 80";
      "filter nw_dst = 10.0.0.0/8"; "filter dl_vlan = 5";
      "filter ! (tp_dst = 80 && dl_type = 0x0800)" ]
  in
  let rec gen depth =
    if depth = 0 then pick atoms
    else
      match N.Prng.below rng 3 with
      | 0 -> Printf.sprintf "(%s ; %s)" (gen (depth - 1)) (gen (depth - 1))
      | 1 -> Printf.sprintf "(%s | %s)" (gen (depth - 1)) (gen (depth - 1))
      | _ -> pick atoms
  in
  let header () =
    { P.Headers.in_port = 1 + N.Prng.below rng 3;
      dl_src = P.Mac.of_int 0x0a0001;
      dl_dst = P.Mac.of_int 0x0a0002;
      dl_vlan = pick [ None; Some 5; Some 9 ];
      dl_vlan_pcp = pick [ None; Some 0 ];
      dl_type = pick [ 0x0800; 0x0806 ];
      nw_src = pick [ None; P.Ipv4_addr.of_string "10.1.2.3" ];
      nw_dst =
        pick
          [ None; P.Ipv4_addr.of_string "10.9.9.9";
            P.Ipv4_addr.of_string "192.168.0.1" ];
      nw_proto = pick [ None; Some 6 ];
      nw_tos = pick [ None; Some 0 ];
      tp_src = pick [ None; Some 1234 ];
      tp_dst = pick [ None; Some 80; Some 53 ] }
  in
  let checked = ref 0 in
  while !checked < cases do
    let p = parse (gen 3) in
    match Policy.Compile.compile p with
    | Error _ -> ()  (* unrealizable under OF 1.0 — not an equivalence case *)
    | Ok cls ->
      for _ = 1 to 5 do
        let h = header () in
        if Policy.Compile.classify cls h <> Policy.Interp.eval p h then
          failwith "e22: compiled classifier disagrees with Interp.eval";
        incr checked
      done
  done;
  !checked

(* Prints the table and returns the BENCH_policy.json artifact. *)
let run () =
  section "E22  policy compiler: NetCore-style IR -> classifier rules over the FS";
  let cases = equivalence ~cases:150 (N.Prng.create ~seed:0x22E22) in
  row "  compile = eval on %d random (policy, packet) cases\n" cases;
  row "  %7s | %10s | %6s | %12s\n" "clauses" "compile s" "rules" "rules/clause";
  let points = List.map compile_point [ 10; 50; 200; 500; 1000; 2000 ] in
  List.iter
    (fun (n, w, r) ->
      row "  %7d | %10.6f | %6d | %12.2f\n" n w r
        (float_of_int r /. float_of_int n))
    points;
  let n_inc = 200 in
  let full, inc = incremental ~n:n_inc () in
  row
    "  incremental: full install of %d clauses = %d flow_mods, one-clause \
     edit = %d (%.1f%%)\n"
    n_inc full inc
    (100. *. float_of_int inc /. float_of_int full);
  Json.(
    Obj
      [ "bench", String "e22_policy_compiler";
        "generated_by", String "dune exec bench/main.exe -- artifacts";
        "compile_wall", String "min of 5 runs, Sys.time";
        "series",
        List
          (List.map
             (fun (n, w, r) ->
               Obj
                 [ "clauses", Int n; "compile_s", Float (6, w); "rules", Int r;
                   "rules_per_clause", Float (2, float_of_int r /. float_of_int n) ])
             points);
        "incremental",
        Obj
          [ "clauses", Int n_inc; "full_install_flow_mods", Int full;
            "one_clause_edit_flow_mods", Int inc;
            "edit_over_full", Float (4, float_of_int inc /. float_of_int full);
            "gate", String "<= 0.10" ] ])
