(* The policy layer's proof obligations (ISSUE 10): the compiler agrees
   with the reference interpreter on every generated (policy, packet)
   pair — both at the classifier level (classify = eval) and at the
   flow-table level (a real Classifier-strategy table replaying the
   compiled action lists) — plus the algebraic laws (par commutes, seq
   associates), parse/print round-trip, byte-identical deterministic
   compiles, and the policy-engine behaviours: malformed files never
   tear the engine down, and a one-clause edit is O(changed) flow_mods. *)

module P = Policy
module M = Openflow.Of_match
module A = Openflow.Action
module H = Packet.Headers

let mac i = Packet.Mac.of_int i
let ip s = Option.get (Packet.Ipv4_addr.of_string s)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let parse_ok s = ok (P.Syntax.parse s)

(* ------------------------------------------------------------------ *)
(* Deterministic generators over Netsim.Prng — small value pools so   *)
(* matches, rewrites and packets collide often.                       *)
(* ------------------------------------------------------------------ *)

let pick rng xs = List.nth xs (Netsim.Prng.below rng (List.length xs))

let gen_headers rng : H.t =
  let opt xs = pick rng (None :: List.map Option.some xs) in
  {
    in_port = 1 + Netsim.Prng.below rng 4;
    dl_src = mac (pick rng [ 0x0a0001; 0x0a0002; 0x0a0003 ]);
    dl_dst = mac (pick rng [ 0x0a0001; 0x0a0002; 0x0b0001 ]);
    dl_vlan = opt [ 5; 10 ];
    dl_vlan_pcp = opt [ 0; 3 ];
    dl_type = pick rng [ 0x0800; 0x0806; 0x88cc ];
    nw_src = opt [ ip "10.0.0.1"; ip "10.1.2.3"; ip "192.168.0.9" ];
    nw_dst = opt [ ip "10.0.0.1"; ip "10.0.0.2"; ip "172.16.0.5" ];
    nw_proto = opt [ 6; 17 ];
    nw_tos = opt [ 0; 46 ];
    tp_src = opt [ 80; 5353 ];
    tp_dst = opt [ 80; 443 ];
  }

let field_tests =
  [
    ("in_port", "1");
    ("in_port", "3");
    ("dl_type", "0x0800");
    ("dl_type", "0x0806");
    ("dl_src", "00:00:00:0a:00:01");
    ("dl_dst", "00:00:00:0a:00:02");
    ("dl_vlan", "5");
    ("nw_src", "10.0.0.0/8");
    ("nw_src", "10.1.0.0/16");
    ("nw_dst", "10.0.0.1");
    ("nw_proto", "6");
    ("nw_tos", "46");
    ("tp_src", "80");
    ("tp_dst", "443");
  ]

let gen_test rng =
  let f, v = pick rng field_tests in
  P.Ir.Test (ok (M.set_field M.any f v))

let rec gen_pred rng depth =
  if depth = 0 then
    match Netsim.Prng.below rng 6 with
    | 0 -> P.Ir.True
    | 1 -> P.Ir.False
    | _ -> gen_test rng
  else
    match Netsim.Prng.below rng 8 with
    | 0 -> P.Ir.True
    | 1 -> P.Ir.False
    | 2 | 3 -> gen_test rng
    | 4 -> P.Ir.And (gen_pred rng (depth - 1), gen_pred rng (depth - 1))
    | 5 -> P.Ir.Or (gen_pred rng (depth - 1), gen_pred rng (depth - 1))
    | 6 -> P.Ir.Not (gen_pred rng (depth - 1))
    | _ -> gen_test rng

let gen_mod rng =
  pick rng
    [
      A.Set_vlan 5;
      A.Set_vlan_pcp 3;
      A.Set_dl_dst (mac 0x0b0001);
      A.Set_dl_src (mac 0x0a0003);
      A.Set_nw_src (ip "10.9.9.9");
      A.Set_nw_dst (ip "10.0.0.2");
      A.Set_nw_tos 7;
      A.Set_tp_src 8080;
      A.Set_tp_dst 443;
    ]

let gen_fwd rng =
  P.Ir.Fwd
    (pick rng
       [
         A.Physical 1;
         A.Physical 2;
         A.Physical 3;
         A.Flood;
         A.All;
         A.In_port;
         A.Controller 0;
         A.Controller 128;
       ])

let rec gen_policy rng depth =
  if depth = 0 then
    match Netsim.Prng.below rng 4 with
    | 0 -> P.Ir.Filter (gen_pred rng 1)
    | 1 | 2 -> gen_fwd rng
    | _ -> P.Ir.Mod (gen_mod rng)
  else
    match Netsim.Prng.below rng 8 with
    | 0 -> P.Ir.Filter (gen_pred rng 2)
    | 1 -> gen_fwd rng
    | 2 -> P.Ir.Mod (gen_mod rng)
    | 3 | 4 -> P.Ir.Seq (gen_policy rng (depth - 1), gen_policy rng (depth - 1))
    | 5 | 6 -> P.Ir.Par (gen_policy rng (depth - 1), gen_policy rng (depth - 1))
    | _ ->
        P.Ir.Ite
          ( gen_pred rng 2,
            gen_policy rng (depth - 1),
            gen_policy rng (depth - 1) )

(* ------------------------------------------------------------------ *)
(* Unit: parsing and printing                                         *)
(* ------------------------------------------------------------------ *)

let test_parse_basics () =
  Alcotest.(check bool) "drop" true (parse_ok "drop" = P.Ir.drop);
  Alcotest.(check bool) "id" true (parse_ok "id" = P.Ir.id);
  Alcotest.(check bool)
    "fwd" true
    (parse_ok "fwd(3)" = P.Ir.Fwd (A.Physical 3));
  Alcotest.(check bool) "flood" true (parse_ok "flood" = P.Ir.Fwd A.Flood);
  Alcotest.(check bool)
    "controller" true
    (parse_ok "controller" = P.Ir.Fwd (A.Controller 0));
  Alcotest.(check bool)
    "controller(64)" true
    (parse_ok "controller(64)" = P.Ir.Fwd (A.Controller 64));
  Alcotest.(check bool)
    "mod" true
    (parse_ok "dl_vlan := 10" = P.Ir.Mod (A.Set_vlan 10));
  (match parse_ok "filter dl_type = 0x0800 ; fwd(1)" with
  | P.Ir.Seq (P.Ir.Filter (P.Ir.Test m), P.Ir.Fwd (A.Physical 1)) ->
      Alcotest.(check (option int)) "dl_type" (Some 0x0800) m.M.dl_type
  | p -> Alcotest.failf "unexpected parse: %s" (P.Syntax.to_string p));
  (match parse_ok "if nw_src = 10.0.0.0/8 then (fwd(1)) else (drop)" with
  | P.Ir.Ite (P.Ir.Test _, P.Ir.Fwd (A.Physical 1), P.Ir.Filter P.Ir.False) ->
      ()
  | p -> Alcotest.failf "unexpected parse: %s" (P.Syntax.to_string p));
  (* comments and whitespace *)
  (match
     parse_ok "# monitor web traffic\nfilter tp_dst = 80 ; controller | id"
   with
  | P.Ir.Par (P.Ir.Seq (_, _), P.Ir.Filter P.Ir.True) -> ()
  | p -> Alcotest.failf "unexpected parse: %s" (P.Syntax.to_string p))

let test_parse_errors () =
  let err s =
    match P.Syntax.parse s with
    | Error _ -> ()
    | Ok p -> Alcotest.failf "parsed %S as %s" s (P.Syntax.to_string p)
  in
  err "";
  err "   # just a comment\n";
  err "fwd(0)";
  err "fwd(-2)";
  err "filter bogus_field = 3";
  err "nw_proto := 6";
  (* nw_proto has no OF 1.0 set action *)
  err "filter dl_type = zzz";
  err "fwd(1) extra";
  err "if true then fwd(1)";
  err "(fwd(1)";
  err "fwd(1) ;"

let test_precedence () =
  (* `;` binds tighter than `|`; both right-nest. *)
  Alcotest.(check bool)
    "seq over par" true
    (parse_ok "fwd(1) ; fwd(2) | fwd(3)"
    = P.Ir.Par (P.Ir.Seq (P.Ir.Fwd (A.Physical 1), P.Ir.Fwd (A.Physical 2)),
                P.Ir.Fwd (A.Physical 3)));
  Alcotest.(check bool)
    "parens force par first" true
    (parse_ok "fwd(1) ; (fwd(2) | fwd(3))"
    = P.Ir.Seq (P.Ir.Fwd (A.Physical 1),
                P.Ir.Par (P.Ir.Fwd (A.Physical 2), P.Ir.Fwd (A.Physical 3))));
  (* && over || *)
  match parse_ok "filter true && false || true" with
  | P.Ir.Filter (P.Ir.Or (P.Ir.And (P.Ir.True, P.Ir.False), P.Ir.True)) -> ()
  | p -> Alcotest.failf "unexpected parse: %s" (P.Syntax.to_string p)

(* ------------------------------------------------------------------ *)
(* Unit: interpreter semantics                                        *)
(* ------------------------------------------------------------------ *)

let some_headers : H.t =
  {
    in_port = 1;
    dl_src = mac 0x0a0001;
    dl_dst = mac 0x0a0002;
    dl_vlan = None;
    dl_vlan_pcp = None;
    dl_type = 0x0800;
    nw_src = Some (ip "10.0.0.1");
    nw_dst = Some (ip "10.0.0.2");
    nw_proto = Some 6;
    nw_tos = Some 0;
    tp_src = Some 1234;
    tp_dst = Some 80;
  }

let test_eval_basics () =
  let emitted p h = P.Interp.emitted (P.Interp.eval (parse_ok p) h) h in
  Alcotest.(check int) "drop" 0 (List.length (emitted "drop" some_headers));
  Alcotest.(check int)
    "id emits nothing (no output)" 0
    (List.length (emitted "id" some_headers));
  (match emitted "fwd(7)" some_headers with
  | [ (h, A.Physical 7) ] ->
      Alcotest.(check bool) "unmodified" true (h = some_headers)
  | _ -> Alcotest.fail "fwd(7)");
  (* seq sees the rewritten packet *)
  (match emitted "nw_tos := 46 ; filter nw_tos = 46 ; fwd(1)" some_headers with
  | [ (h, A.Physical 1) ] ->
      Alcotest.(check (option int)) "tos rewritten" (Some 46) h.H.nw_tos
  | _ -> Alcotest.fail "mod;filter;fwd");
  (* the filter sees the original value when it runs first *)
  Alcotest.(check int)
    "filter-first misses" 0
    (List.length
       (emitted "filter nw_tos = 46 ; nw_tos := 46 ; fwd(1)" some_headers));
  (* par duplicates to both ports *)
  (match emitted "fwd(1) | fwd(2)" some_headers with
  | [ (_, A.Physical 1); (_, A.Physical 2) ] -> ()
  | _ -> Alcotest.fail "par fan-out");
  (* a fwd followed by a mod still outputs (NetKAT-style: the packet
     materializes at the end of the seq chain, rewrites included) *)
  match emitted "fwd(1) ; dl_vlan := 10" some_headers with
  | [ (h, A.Physical 1) ] ->
      Alcotest.(check (option int)) "vlan applied" (Some 10) h.H.dl_vlan
  | _ -> Alcotest.fail "fwd;mod"

(* ------------------------------------------------------------------ *)
(* The equivalence sweep: classify (compile p) = eval p, and the      *)
(* compiled action lists replayed through a real Classifier flow      *)
(* table agree with the interpreter's emitted packets.                *)
(* ------------------------------------------------------------------ *)

let equivalence_cases ~policies ~packets_per ~seed () =
  let rng = Netsim.Prng.create ~seed in
  let atom_checked = ref 0 and table_checked = ref 0 in
  for _ = 1 to policies do
    let p = gen_policy rng 3 in
    let cls = ok (P.Compile.compile p) in
    let flows = P.Compile.to_flows p in
    let table =
      match flows with
      | Error _ -> None (* unrealizable atom sets: classifier level only *)
      | Ok rules ->
          let t = Netsim.Flow_table.create ~strategy:Classifier () in
          List.iter
            (fun (r : P.Compile.flow_rule) ->
              Netsim.Flow_table.add t ~now:0. ~of_match:r.of_match
                ~priority:r.priority ~actions:r.actions ())
            rules;
          Some t
    in
    for _ = 1 to packets_per do
      let h = gen_headers rng in
      let want = P.Interp.eval p h in
      let got = P.Compile.classify cls h in
      if got <> want then
        Alcotest.failf "classify/eval mismatch on %s:@ eval %a@ classify %a"
          (P.Syntax.to_string p) P.Ir.pp_atoms want P.Ir.pp_atoms got;
      incr atom_checked;
      match table with
      | None -> ()
      | Some t ->
          let actions =
            match Netsim.Flow_table.lookup t ~now:0. h with
            | Some e -> e.actions
            | None -> []
          in
          let want_emit = P.Interp.emitted want h in
          let got_emit = P.Interp.replay actions h in
          if got_emit <> want_emit then
            Alcotest.failf "flow-table/eval mismatch on %s"
              (P.Syntax.to_string p);
          incr table_checked
    done
  done;
  (!atom_checked, !table_checked)

let test_equivalence () =
  let atoms, tables =
    equivalence_cases ~policies:300 ~packets_per:4 ~seed:0x70110C ()
  in
  Alcotest.(check bool)
    (Fmt.str "atom-level cases >= 1200 (got %d)" atoms)
    true (atoms >= 1200);
  (* the ISSUE gate: >= 500 end-to-end (real flow table) cases *)
  Alcotest.(check bool)
    (Fmt.str "flow-table cases >= 500 (got %d)" tables)
    true (tables >= 500)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let arb_policy =
  let gen st =
    let rng = Netsim.Prng.create ~seed:(QCheck.Gen.int_bound 0xFFFFFF st) in
    gen_policy rng (1 + QCheck.Gen.int_bound 2 st)
  in
  QCheck.make ~print:P.Syntax.to_string gen

let arb_policy_pair =
  QCheck.pair arb_policy arb_policy

let arb_headers =
  QCheck.make
    ~print:(Fmt.to_to_string H.pp)
    (fun st ->
      gen_headers (Netsim.Prng.create ~seed:(QCheck.Gen.int_bound 0xFFFFFF st)))

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (to_string p) = p" ~count:300 arb_policy
    (fun p ->
      match P.Syntax.parse (P.Syntax.to_string p) with
      | Ok p' -> p' = p
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let prop_par_commutes =
  QCheck.Test.make ~name:"par commutes under eval" ~count:200
    (QCheck.pair arb_policy_pair arb_headers)
    (fun ((p, q), h) ->
      P.Interp.eval (P.Ir.Par (p, q)) h = P.Interp.eval (P.Ir.Par (q, p)) h)

let prop_seq_assoc =
  QCheck.Test.make ~name:"seq associates under eval" ~count:200
    (QCheck.pair (QCheck.triple arb_policy arb_policy arb_policy) arb_headers)
    (fun ((p, q, r), h) ->
      P.Interp.eval (P.Ir.Seq (P.Ir.Seq (p, q), r)) h
      = P.Interp.eval (P.Ir.Seq (p, P.Ir.Seq (q, r))) h)

let prop_deterministic =
  QCheck.Test.make ~name:"two compiles are byte-identical" ~count:100
    arb_policy (fun p ->
      match (P.Compile.to_flows p, P.Compile.to_flows p) with
      | Ok a, Ok b -> P.Compile.render a = P.Compile.render b
      | Error a, Error b -> a = b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Unit: compiler structure                                           *)
(* ------------------------------------------------------------------ *)

let clause i =
  Fmt.str "filter dl_type = 0x0800 && nw_dst = 10.%d.%d.%d ; fwd(%d)"
    (i / 250) (i mod 250) (i mod 7) (1 + (i mod 4))

let big_policy n = String.concat "\n| " (List.init n clause)

let test_disjoint_clauses_stay_linear () =
  let n = 200 in
  let rules = ok (P.Compile.to_flows (parse_ok (big_policy n))) in
  (* disjoint nw_dst clauses: one rule per clause + the catch-all drop *)
  Alcotest.(check bool)
    (Fmt.str "rule count %d <= %d" (List.length rules) (n + 1))
    true
    (List.length rules <= n + 1);
  (* distinct descending priorities, all inside the policy band *)
  let prios = List.map (fun (r : P.Compile.flow_rule) -> r.priority) rules in
  Alcotest.(check bool)
    "descending" true
    (List.for_all2 ( > ) (List.filteri (fun i _ -> i < List.length prios - 1) prios)
       (List.tl prios));
  List.iter
    (fun p ->
      Alcotest.(check bool) "in band" true
        (p > P.Compile.priority_floor && p < P.Compile.priority_base))
    prios

let test_unrealizable_honest () =
  (* two outputs each needing the other's field at its original value,
     nothing pinned by the match: must be a compile error, not a wrong
     action list *)
  (match P.Compile.to_flows
           (parse_ok "(dl_vlan := 5 ; fwd(1)) | (nw_tos := 7 ; fwd(2))")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unrealizable");
  (* same atoms, but the match pins both fields: realizable *)
  let rules =
    ok
      (P.Compile.to_flows
         (parse_ok
            "filter dl_vlan = 9 && nw_tos = 3 ; ((dl_vlan := 5 ; fwd(1)) | \
             (nw_tos := 7 ; fwd(2)))"))
  in
  Alcotest.(check bool) "has rules" true (List.length rules >= 1)

let test_stable_names () =
  (* an unchanged clause keeps its content-addressed name across an
     edit elsewhere in the policy *)
  let names p =
    List.filter_map
      (fun (r : P.Compile.flow_rule) ->
        if r.actions = [] then None else Some (r.name, r.of_match))
      (ok (P.Compile.to_flows (parse_ok p)))
  in
  let a = names (big_policy 50) in
  let b = names (String.concat "\n| " (clause 99 :: List.init 50 clause)) in
  List.iter
    (fun (n, m) ->
      match List.find_opt (fun (_, m') -> M.equal m m') b with
      | Some (n', _) ->
          Alcotest.(check string) "stable name" n n'
      | None -> Alcotest.fail "clause disappeared")
    a

let test_prefix_pin_is_32_only () =
  (* the second output needs nw_dst back at its original value; a /8
     prefix cannot restore it (which original?), a /32 can *)
  (match
     P.Compile.to_flows
       (parse_ok
          "filter nw_dst = 10.0.0.0/8 && dl_vlan = 9 ; ((nw_dst := 10.2.2.2 \
           ; fwd(1)) | (dl_vlan := 5 ; fwd(2)))")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unrealizable under /8");
  let rules =
    ok
      (P.Compile.to_flows
         (parse_ok
            "filter nw_dst = 10.0.0.1 && dl_vlan = 9 ; ((nw_dst := 10.2.2.2 \
             ; fwd(1)) | (dl_vlan := 5 ; fwd(2)))"))
  in
  Alcotest.(check bool) "realizable under /32" true (List.length rules >= 1)

(* ------------------------------------------------------------------ *)
(* Golden output: [Compile.render] digests recorded from the          *)
(* left-fold compiler (each [|] step cross-unioned into the           *)
(* accumulated classifier). The balanced cross-union and the match    *)
(* hash must reproduce every byte.                                    *)
(* ------------------------------------------------------------------ *)

let render_digest p =
  Digest.to_hex
    (Digest.string
       (match P.Compile.to_flows p with
       | Ok rules -> P.Compile.render rules
       | Error e -> "error:" ^ e))

let golden_series =
  [
    (10, "be4aea1e57b96215e1daaf46beef603a");
    (50, "b5a0c17d5fbddf41d7bf936e871e86b9");
    (200, "915a1fb933e4d538bae7032618aa08f1");
    (500, "9e03843004157e325cca6cf2eb034591");
    (1000, "bea98a9585eb0067d9f9ab255667d987");
    (2000, "85be96262f52fc6da19650dda9d2efc0");
  ]

(* First 8 hex digits of each digest of [gen_policy rng 3], 240 draws
   from seed 0x601DE7. *)
let golden_random =
  [ "bb8c94a1";"bb8c94a1";"bb8c94a1";"32c77613";"bb8c94a1";"4397358d";"4d4207d6";"27f0708a";"c07b9759";"da009865";"bb8c94a1";"0d206a55";"bb8c94a1";"52d8873d";"44708e85";"bb8c94a1";"70b37cd5";"bb8c94a1";"7cc3e030";"af9bc26e";"6f4900b4";"bb8c94a1";"3c2535b0";"0788e1da";"bb8c94a1";"1c98531f";"b1f07649";"7bff70fd";"bb8c94a1";"bb8c94a1";"a43efb94";"6b29bba3";"bb8c94a1";"5419130e";"5eebb959";"bb8c94a1";"5b049593";"bb8c94a1";"e7faeb2c";"ed621251";"342c36f5";"2e1ffa82";"bb8c94a1";"503894bb";"bb8c94a1";"da009865";"4f57c5f7";"ea28ec86";"3c2535b0";"69fd9366";"503894bb";"bb8c94a1";"e6696710";"a70cece6";"b0450239";"bb8c94a1";"74555547";"9264427c";"3c2535b0";"bb8c94a1";"b916c9d3";"cd4a79fb";"996d4626";"da009865";"29a737b7";"41bb971e";"06143b1b";"fae75492";"b1bd555e";"af9bc26e";"a10d39e7";"31164324";"bb8c94a1";"77d6122b";"bb8c94a1";"b03f0df0";"342e74ac";"37e80302";"4462b3c7";"fcfbb04f";"bb8c94a1";"bb8c94a1";"0408b55c";"9e4a088d";"a3e2cafc";"fc28087f";"e7faeb2c";"bb8c94a1";"01291952";"bb8c94a1";"4e9e3d8d";"996d4626";"a7d164ff";"39ebe09f";"b9ef352e";"1c98531f";"c24fe3ec";"cb933270";"503894bb";"71b7093b";"c2f8e167";"da009865";"4e077805";"bb8c94a1";"2eac79ee";"fa77ae11";"bb8c94a1";"036717be";"bb8c94a1";"bb8c94a1";"da009865";"06029d98";"ee80b573";"da009865";"10588e9f";"c7aacc49";"bb8c94a1";"d4c7b3c1";"176bece5";"86c08bba";"fc8d20e8";"bb8c94a1";"e4834ff3";"fa77ae11";"fdcdb322";"bb8c94a1";"bb8c94a1";"bb8c94a1";"bb8c94a1";"99dde2d1";"bb8c94a1";"768d4b3a";"bb8c94a1";"8c8057d0";"55626b4a";"89257860";"bb8c94a1";"39ebe09f";"b7095d69";"30dabb5c";"35697bf4";"bb8c94a1";"b8d70a48";"da009865";"3135406e";"fc6b3df2";"5eebb959";"0689f431";"bb8c94a1";"a48fa0d1";"85d64d6e";"bb8c94a1";"932e0fdb";"a571e333";"86116e53";"b2d8599c";"1c98531f";"bb8c94a1";"bb8c94a1";"a571e333";"3c2535b0";"bb8c94a1";"bb8c94a1";"417c381c";"b7c44333";"75c29274";"48f088b4";"58948e72";"bb8c94a1";"7cca1b4f";"bb8c94a1";"eedb6b24";"da009865";"bb8c94a1";"a3c653d4";"1492a6c0";"f6716118";"c9a436e9";"0d48a8ef";"06143b1b";"a24c143b";"f6716118";"a59f396b";"1492a6c0";"69289fcb";"1407ce1f";"1c98531f";"0521b785";"bb8c94a1";"bb8c94a1";"e2a65ff3";"7bc7d3e9";"c4a5106f";"292b1b2c";"bb8c94a1";"fa77ae11";"bb8c94a1";"5eebb959";"bb8c94a1";"6f37c502";"bb8c94a1";"0521b785";"882b57d6";"1c98531f";"bb8c94a1";"3c2535b0";"bb8c94a1";"9677b1ee";"af9bc26e";"e7faeb2c";"bb8c94a1";"bd345481";"bb8c94a1";"d806880d";"bff738b3";"8d352871";"d1ee14f6";"bb8c94a1";"bb8c94a1";"a66174d1";"8d352871";"bb8c94a1";"9c1479d3";"bb8c94a1";"b3cc9389";"bb8c94a1";"af9bc26e";"06029d98";"da4d692c";"188aea04";"bb8c94a1";"3185d920";"8d352871";"95ffc56a";"bb8c94a1";"af322fe9";"0521b785";"5c3ba4e6";"820b4f21";"d1c947a6" ]

(* The same for [|] chains of 2-10 [gen_policy rng 2] parts, nested to
   the left as the engine composes files: 80 draws from seed
   0x9A2C4A1. *)
let golden_par_chains =
  [ "c3f4379c";"9d4b9fb4";"bf18f343";"4018fb37";"b38fc2e2";"4758b35f";"98af29d7";"cd502996";"3aedd206";"22380b50";"837b4114";"2575d535";"a230ca9b";"fae053bf";"da1db002";"c8a661b8";"638ea13c";"b1c0e036";"a789bb60";"d3d7a744";"c403a75d";"05a1c4c7";"9fa8c569";"12e318ff";"3f0d3104";"ea971a95";"bb8c94a1";"a9944833";"0d855e94";"a7cae492";"0a804e39";"7d2a9246";"ad7d774c";"14742a2d";"948e51bf";"1315c2a3";"f7bf8f41";"80d43107";"a09a4709";"2c2d91b5";"82dfb367";"fe7aeeff";"6cb1f263";"57a0878f";"da5b7ba8";"bb8c94a1";"dee81368";"7d05b3b8";"e7faeb2c";"bb221291";"1bc805b5";"c600203b";"99d3e9ed";"504ca2a7";"5b79cf6d";"0462c1ae";"7218f8ac";"0122f4f2";"3c2535b0";"a971ed73";"cdd0bbc9";"80686b5d";"5acec59d";"40c547f0";"2c64f3cd";"71e798cf";"fc76fe25";"d07972cc";"7682449e";"093cb800";"061d957e";"14bf3a26";"9bb8db6f";"a48fa0d1";"95ec0721";"90b73abd";"a9752fc3";"722eb60b";"3e05bb57";"a8eb0988" ]

let test_golden_series () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check string)
        (Fmt.str "%d clauses" n) want
        (render_digest (parse_ok (big_policy n))))
    golden_series

let check_golden ~what gen digests =
  List.iteri
    (fun i want ->
      let p = gen () in
      Alcotest.(check string)
        (Fmt.str "%s %d: %s" what i (P.Syntax.to_string p))
        want
        (String.sub (render_digest p) 0 8))
    digests

let test_golden_random () =
  let rng = Netsim.Prng.create ~seed:0x601DE7 in
  check_golden ~what:"policy" (fun () -> gen_policy rng 3) golden_random;
  let rng = Netsim.Prng.create ~seed:0x9A2C4A1 in
  check_golden ~what:"par chain"
    (fun () ->
      let k = 2 + Netsim.Prng.below rng 9 in
      match List.init k (fun _ -> gen_policy rng 2) with
      | p :: rest -> List.fold_left (fun acc q -> P.Ir.Par (acc, q)) p rest
      | [] -> assert false)
    golden_par_chains

(* ------------------------------------------------------------------ *)
(* The diff's anchors against an O(n·m) LCS oracle                     *)
(* ------------------------------------------------------------------ *)

let lcs_length a b =
  let n = Array.length a and m = Array.length b in
  let tbl = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      tbl.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + tbl.(i + 1).(j + 1)
         else max tbl.(i + 1).(j) tbl.(i).(j + 1))
    done
  done;
  tbl.(0).(0)

let is_subsequence xs arr =
  let rec go xs j =
    match xs with
    | [] -> true
    | x :: rest ->
        j < Array.length arr
        && if String.equal x arr.(j) then go rest (j + 1) else go xs (j + 1)
  in
  go xs 0

(* Name lists as the differ sees them: unique on each side, each a
   random sample of one base order. Half the cases shuffle the desired
   side (short LCS, many ties); half swap a few of its names (long LCS
   with some disorder, as after an edit). *)
let test_anchors_are_an_lcs () =
  let rng = Netsim.Prng.create ~seed:0xA4C405 in
  let sample base =
    Array.of_list (List.filter (fun _ -> Netsim.Prng.below rng 4 > 0) base)
  in
  let swap a i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  for case = 1 to 600 do
    let base = List.init (Netsim.Prng.below rng 60) (Fmt.str "pol_%03d") in
    let installed = sample base and desired = sample base in
    let n = Array.length desired in
    if case mod 2 = 0 then
      for i = n - 1 downto 1 do
        swap desired i (Netsim.Prng.below rng (i + 1))
      done
    else if n > 1 then
      for _ = 1 to Netsim.Prng.below rng 4 do
        swap desired (Netsim.Prng.below rng n) (Netsim.Prng.below rng n)
      done;
    let got = Apps.Policy_engine.anchors installed desired in
    if not (is_subsequence got installed && is_subsequence got desired) then
      Alcotest.failf "case %d: anchors are not a common subsequence" case;
    Alcotest.(check int)
      (Fmt.str "case %d: anchors are a longest common subsequence" case)
      (lcs_length installed desired)
      (List.length got)
  done

(* ------------------------------------------------------------------ *)
(* The engine: policy files -> fsnotify -> recompile -> diffed        *)
(* install through the commit queue.                                  *)
(* ------------------------------------------------------------------ *)

let cred = Vfs.Cred.root

type rig = {
  ctl : Yanc.Controller.t;
  eng : Apps.Policy_engine.t;
  fs : Vfs.Fs.t;
  net : Netsim.Network.t;
}

let rig ?(switches = 2) () =
  let built = Netsim.Topo_gen.linear switches in
  let ctl = Yanc.Controller.create ~net:built.Netsim.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  let eng = Yanc.Controller.add_policy_engine ctl in
  Yanc.Controller.run_for ctl 0.5;
  { ctl; eng; fs = Yanc.Controller.fs ctl; net = built.Netsim.Topo_gen.net }

let write_policy r name text =
  ok
    (Result.map_error Vfs.Errno.to_string
       (Vfs.Fs.write_file r.fs ~cred (Yancfs.Layout.policy_file name) text));
  Yanc.Controller.run_for r.ctl 0.5

let counter r name =
  Telemetry.Registry.value
    (Telemetry.Registry.counter
       (Telemetry.registry (Yanc.Controller.telemetry r.ctl))
       name)

let pol_flows r switch =
  Yancfs.Yanc_fs.flow_name_set (Yanc.Controller.yfs r.ctl) ~cred switch
  |> Yancfs.Yanc_fs.Name_set.filter (fun n ->
         String.length n > 4 && String.sub n 0 4 = "pol_")
  |> Yancfs.Yanc_fs.Name_set.elements

(* The convergence invariant: each switch's pol_* flows in the file
   system are exactly the desired rules (same names, each with the
   desired match and actions, file priorities in the desired order),
   and the hardware table holds exactly the same (match, actions) set
   in the policy priority band. *)
let assert_converged ?(msg = "") r =
  let desired = Apps.Policy_engine.desired r.eng in
  let by_name =
    List.map (fun (d : P.Compile.flow_rule) -> (d.name, d)) desired
  in
  List.iter
    (fun switch ->
      let installed = pol_flows r switch in
      Alcotest.(check (list string))
        (Fmt.str "%s%s: flow files = desired rules" msg switch)
        (List.sort compare (List.map fst by_name))
        (List.sort compare installed);
      let flows =
        List.map
          (fun name ->
            ( name,
              ok
                (Yancfs.Yanc_fs.read_flow (Yanc.Controller.yfs r.ctl) ~cred
                   ~switch name) ))
          installed
      in
      List.iter
        (fun (name, (f : Yancfs.Flowdir.t)) ->
          let d = List.assoc name by_name in
          Alcotest.(check bool)
            (Fmt.str "%s%s/%s match+actions" msg switch name)
            true
            (M.equal f.of_match d.of_match && f.actions = d.actions))
        flows;
      (* file priorities realize the desired order *)
      let order_of_files =
        List.sort
          (fun (_, (a : Yancfs.Flowdir.t)) (_, b) ->
            compare b.priority a.priority)
          flows
        |> List.map fst
      in
      Alcotest.(check (list string))
        (Fmt.str "%s%s: priority order" msg switch)
        (List.map (fun (d : P.Compile.flow_rule) -> d.name) desired)
        order_of_files;
      (* hardware agrees *)
      let dpid = Option.get (Yancfs.Yanc_fs.switch_dpid (Yanc.Controller.yfs r.ctl) switch) in
      let sw = Option.get (Netsim.Network.switch r.net dpid) in
      let hw =
        match Netsim.Sim_switch.table sw 0 with
        | None -> []
        | Some t ->
            List.filter_map
              (fun (e : Netsim.Flow_table.entry) ->
                if e.priority > P.Compile.priority_floor
                   && e.priority < P.Compile.priority_base
                then Some (e.of_match, e.actions)
                else None)
              (Netsim.Flow_table.entries t)
      in
      let want =
        List.map (fun (d : P.Compile.flow_rule) -> (d.of_match, d.actions)) desired
      in
      Alcotest.(check int)
        (Fmt.str "%s%s: hardware rule count" msg switch)
        (List.length want) (List.length hw);
      Alcotest.(check bool)
        (Fmt.str "%s%s: hardware rules" msg switch)
        true
        (List.sort compare hw = List.sort compare want))
    (Yancfs.Yanc_fs.switch_names (Yanc.Controller.yfs r.ctl))

let test_engine_install_and_update () =
  let r = rig () in
  write_policy r "web" "filter dl_type = 0x0800 && tp_dst = 80 ; fwd(1)";
  Alcotest.(check bool)
    "rules compiled" true
    (List.length (Apps.Policy_engine.desired r.eng) >= 1);
  assert_converged ~msg:"install: " r;
  (* a second file composes in parallel *)
  write_policy r "arp" "filter dl_type = 0x0806 ; controller";
  assert_converged ~msg:"compose: " r;
  (* editing a file recompiles *)
  write_policy r "web" "filter dl_type = 0x0800 && tp_dst = 443 ; fwd(2)";
  assert_converged ~msg:"edit: " r;
  (* deleting every file uninstalls *)
  ok
    (Result.map_error Vfs.Errno.to_string
       (Vfs.Fs.unlink r.fs ~cred (Yancfs.Layout.policy_file "web")));
  ok
    (Result.map_error Vfs.Errno.to_string
       (Vfs.Fs.unlink r.fs ~cred (Yancfs.Layout.policy_file "arp")));
  Yanc.Controller.run_for r.ctl 0.5;
  Alcotest.(check int)
    "uninstalled" 0
    (List.length (Apps.Policy_engine.desired r.eng) + List.length (pol_flows r "sw1"))

let test_engine_late_switch () =
  (* a switch that appears after the policy is installed gets it too *)
  let r = rig ~switches:1 () in
  write_policy r "p" "filter dl_type = 0x0800 ; flood";
  assert_converged ~msg:"before: " r;
  let yfs = Yanc.Controller.yfs r.ctl in
  ok
    (Result.map_error Vfs.Errno.to_string
       (Yancfs.Yanc_fs.add_switch yfs
          ~name:(Yancfs.Yanc_fs.switch_name_of_dpid 77L) ~dpid:77L
          ~protocol:"sim" ~n_buffers:256 ~n_tables:1 ~capabilities:[]
          ~actions:[]));
  Yanc.Controller.run_for r.ctl 0.5;
  let sw77 = Yancfs.Yanc_fs.switch_name_of_dpid 77L in
  Alcotest.(check bool)
    "late switch has the policy" true
    (pol_flows r sw77 <> [])

let read_errors r name =
  Vfs.Fs.read_file r.fs ~cred (Yancfs.Layout.policy_error name)

let test_engine_survives_malformed () =
  let r = rig ~switches:1 () in
  write_policy r "good" "filter dl_type = 0x0806 ; controller";
  assert_converged ~msg:"good: " r;
  let installed = List.length (Apps.Policy_engine.desired r.eng) in
  let errors0 = counter r "policy.compile_errors" in
  (* 1: syntax error *)
  write_policy r "bad_syntax" "filter dl_type = ; fwd(";
  (* 2: unknown field *)
  write_policy r "bad_field" "filter dl_himalaya = 3 ; fwd(1)";
  (* 3: empty file *)
  write_policy r "bad_empty" "";
  List.iter
    (fun name ->
      match read_errors r name with
      | Ok msg ->
          Alcotest.(check bool)
            (Fmt.str ".errors/%s non-empty" name)
            true
            (String.length msg > 0)
      | Error e ->
          Alcotest.failf ".errors/%s missing: %s" name (Vfs.Errno.to_string e))
    [ "bad_syntax"; "bad_field"; "bad_empty" ];
  Alcotest.(check bool)
    "policy.compile_errors counted" true
    (counter r "policy.compile_errors" >= errors0 + 3);
  (* the engine is alive and the good policy is still installed *)
  Alcotest.(check int)
    "good rules kept" installed
    (List.length (Apps.Policy_engine.desired r.eng));
  assert_converged ~msg:"after bad: " r;
  (* fixing a bad file clears its error and recompiles *)
  write_policy r "bad_field" "filter dl_type = 0x0800 ; fwd(1)";
  (match read_errors r "bad_field" with
  | Error Vfs.Errno.ENOENT -> ()
  | Ok _ -> Alcotest.fail ".errors/bad_field should be cleared"
  | Error e -> Alcotest.failf "unexpected: %s" (Vfs.Errno.to_string e));
  Alcotest.(check bool)
    "recompiled with the fix" true
    (List.length (Apps.Policy_engine.desired r.eng) > installed);
  assert_converged ~msg:"after fix: " r

let test_engine_unrealizable_keeps_last_good () =
  let r = rig ~switches:1 () in
  write_policy r "p" "filter tp_dst = 80 ; fwd(1)";
  let good = Apps.Policy_engine.desired r.eng in
  Alcotest.(check bool) "installed" true (good <> []);
  (* an unrealizable composition: compile error at the policy level *)
  write_policy r "q" "(dl_vlan := 5 ; fwd(1)) | (nw_tos := 7 ; fwd(2))";
  (match read_errors r "_policy" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail ".errors/_policy missing");
  Alcotest.(check (list string))
    "last good rules kept"
    (List.map (fun (d : P.Compile.flow_rule) -> d.name) good)
    (List.map
       (fun (d : P.Compile.flow_rule) -> d.name)
       (Apps.Policy_engine.desired r.eng));
  assert_converged ~msg:"kept: " r;
  ok
    (Result.map_error Vfs.Errno.to_string
       (Vfs.Fs.unlink r.fs ~cred (Yancfs.Layout.policy_file "q")));
  Yanc.Controller.run_for r.ctl 0.5;
  match read_errors r "_policy" with
  | Error Vfs.Errno.ENOENT -> assert_converged ~msg:"recovered: " r
  | _ -> Alcotest.fail ".errors/_policy should be cleared"

let test_engine_incremental_commits () =
  (* the ISSUE gate: a one-clause edit of a >=200-rule installed policy
     issues <= 10% of the flow_mods a full install does, measured at
     the driver.commit.* counters *)
  let r = rig ~switches:1 () in
  let n = 200 in
  let mods r = counter r "driver.commit.adds" + counter r "driver.commit.deletes" in
  let before_full = mods r in
  write_policy r "big" (big_policy n);
  Yanc.Controller.run_for r.ctl 2.0;
  assert_converged ~msg:"full: " r;
  let full_cost = mods r - before_full in
  Alcotest.(check bool)
    (Fmt.str "full install programs >= %d rules (cost %d)" n full_cost)
    true (full_cost >= n);
  (* rewrite one clause *)
  let edited =
    String.concat "\n| "
      (List.init n (fun i -> if i = 100 then clause 999 else clause i))
  in
  let before_edit = mods r in
  write_policy r "big" edited;
  Yanc.Controller.run_for r.ctl 2.0;
  assert_converged ~msg:"edited: " r;
  let edit_cost = mods r - before_edit in
  Alcotest.(check bool)
    (Fmt.str "one-clause edit cost %d <= 10%% of full %d" edit_cost full_cost)
    true
    (edit_cost * 10 <= full_cost)

let test_proc_policy_report () =
  let r = rig ~switches:1 () in
  write_policy r "p" "filter dl_type = 0x0806 ; controller";
  write_policy r "broken" "fwd(";
  let report =
    ok
      (Result.map_error Vfs.Errno.to_string
         (Vfs.Fs.read_file r.fs ~cred
            (Yancfs.Layout.proc_policy ~proc:Yancfs.Layout.default_proc_root)))
  in
  let has needle =
    let nl = String.length needle and rl = String.length report in
    let rec go i = i + nl <= rl && (String.sub report i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "lists files" true (has "files 2");
  Alcotest.(check bool) "flags the broken file" true (has "file broken error")

let read_proc r path =
  ok (Result.map_error Vfs.Errno.to_string (Vfs.Fs.read_file r.fs ~cred path))

let test_engine_counts_fs_errors () =
  (* a write policyd cannot make is counted, not dropped: with .errors/
     replaced by a plain file, filing a parse error fails *)
  let r = rig ~switches:1 () in
  write_policy r "good" "filter dl_type = 0x0806 ; controller";
  Alcotest.(check int) "no failures yet" 0 (counter r "policy.fs_errors");
  ok
    (Result.map_error Vfs.Errno.to_string
       (Vfs.Fs.rmdir ~recursive:true r.fs ~cred Yancfs.Layout.policy_errors_dir));
  ok
    (Result.map_error Vfs.Errno.to_string
       (Vfs.Fs.write_file r.fs ~cred Yancfs.Layout.policy_errors_dir "x"));
  write_policy r "bad" "fwd(";
  let failures = counter r "policy.fs_errors" in
  Alcotest.(check bool)
    (Fmt.str "failed .errors/ write counted (%d)" failures)
    true (failures >= 1);
  let proc = Yancfs.Layout.default_proc_root in
  let report = read_proc r (Yancfs.Layout.proc_policy ~proc) in
  Alcotest.(check bool)
    "/yanc/.proc/policy shows the count" true
    (List.mem
       (Fmt.str "fs_errors %d" failures)
       (String.split_on_char '\n' report));
  let health = read_proc r (Yancfs.Layout.proc_health ~proc) in
  Alcotest.(check bool)
    "health is crit" true
    (Telemetry.Health.status_of_render health = Some Telemetry.Health.Crit);
  Alcotest.(check bool)
    "the policy probe is the one breached" true
    (List.exists
       (fun l ->
         String.length l > 21 && String.sub l 0 21 = "policy_fs_errors crit")
       (String.split_on_char '\n' health))

let () =
  Alcotest.run "policy"
    [
      ( "syntax",
        [
          Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "precedence" `Quick test_precedence;
        ] );
      ("interp", [ Alcotest.test_case "basics" `Quick test_eval_basics ]);
      ( "equivalence",
        [ Alcotest.test_case "compile = eval (1200 cases)" `Quick test_equivalence ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_par_commutes; prop_seq_assoc; prop_deterministic ] );
      ( "compiler",
        [
          Alcotest.test_case "disjoint clauses stay linear" `Quick
            test_disjoint_clauses_stay_linear;
          Alcotest.test_case "unrealizable is an error" `Quick
            test_unrealizable_honest;
          Alcotest.test_case "content-addressed names are stable" `Quick
            test_stable_names;
          Alcotest.test_case "only /32 prefixes pin restores" `Quick
            test_prefix_pin_is_32_only;
        ] );
      ( "golden",
        [
          Alcotest.test_case "E22 series digests" `Quick test_golden_series;
          Alcotest.test_case "seeded random policy digests" `Quick
            test_golden_random;
        ] );
      ( "engine",
        [
          Alcotest.test_case "install, compose, edit, uninstall" `Quick
            test_engine_install_and_update;
          Alcotest.test_case "late switch gets the policy" `Quick
            test_engine_late_switch;
          Alcotest.test_case "malformed files do not tear it down" `Quick
            test_engine_survives_malformed;
          Alcotest.test_case "unrealizable compose keeps last good" `Quick
            test_engine_unrealizable_keeps_last_good;
          Alcotest.test_case "one-clause edit is O(changed) flow_mods" `Quick
            test_engine_incremental_commits;
          Alcotest.test_case "/yanc/.proc/policy report" `Quick
            test_proc_policy_report;
          Alcotest.test_case "diff anchors are a longest common subsequence"
            `Quick test_anchors_are_an_lcs;
          Alcotest.test_case "failed writes count in policy.fs_errors" `Quick
            test_engine_counts_fs_errors;
        ] );
    ]
