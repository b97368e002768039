(* The benchmark harness: one experiment per quantitative claim or
   architectural figure in the paper, plus ablations of the design
   choices called out in DESIGN.md. EXPERIMENTS.md records each
   experiment's paper-vs-measured story; its E19-E22 tables are copied
   from the BENCH_*.json files that `artifacts` writes.

   Usage: main.exe [SUBCOMMAND]; with no subcommand, every experiment
   runs in turn. *)

let artifacts () =
  Harness.Json.write "BENCH_scale.json" (E19.run ());
  Harness.Json.write "BENCH_cluster.json" (E20.run ());
  Harness.Json.write "BENCH_obs.json" (E21.run ());
  Harness.Json.write "BENCH_policy.json" (E22.run ())

let all () =
  print_endline "yanc-ml benchmark harness (see EXPERIMENTS.md for the paper mapping)";
  Paper.e1_figure ();
  Paper.e8_crossings ();
  Paper.e8_walltime ();
  Paper.e3_commit ();
  Paper.e4_fanout ();
  Paper.ablation_notify ();
  Classifier.ablation_lookup ();
  Classifier.e15_classifier ();
  Paper.e7_dfs ();
  Paper.e9_reactive ();
  Paper.e6_views ();
  Paper.ablation_reactive_granularity ();
  Namespace.e13_path_resolution ();
  Namespace.e14_routing ();
  Namespace.e14_walltime ();
  Control.e16_tracing ();
  Control.e17_recovery ();
  Control.e18_commit_queue ();
  ignore (E19.run ());
  ignore (E20.run ());
  ignore (E22.run ());
  Paper.ext_qos ();
  Paper.e_wire_volume ();
  print_endline "\ndone."

let subcommands =
  [ ("smoke", "the @bench-smoke gates", Smoke.run);
    ("e18", "E18 commit queue", Control.e18_commit_queue);
    ("e19", "E19 fat-tree storms", (fun () -> ignore (E19.run ())));
    ("e20", "E20 sharded cluster", (fun () -> ignore (E20.run ())));
    ("e21", "E21 cluster observability", (fun () -> ignore (E21.run ())));
    ("e22", "E22 policy compiler", (fun () -> ignore (E22.run ())));
    ("artifacts", "E19-E22, writing the four BENCH_*.json files", artifacts) ]

let usage () =
  prerr_endline "usage: main.exe [SUBCOMMAND]  (no subcommand: every experiment)";
  List.iter
    (fun (name, what, _) -> Printf.eprintf "  %-10s %s\n" name what)
    subcommands;
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> all ()
  | [ name ] -> (
    match List.find_opt (fun (n, _, _) -> n = name) subcommands with
    | Some (_, _, run) -> run ()
    | None -> usage ())
  | _ -> usage ()
