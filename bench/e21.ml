(* E21 — the observability plane's own bill. What does cluster-wide
   tracing cost, and does a trace actually cross nodes? One storm per
   (tracing, n) point; overhead is min-of-5 interleaved wall (same
   epsilon story as the E16 gate); coverage is measured from the nodes'
   span rings themselves: a trace id seen in two rings is a span tree
   that crossed the op-log. Writes BENCH_obs.json. *)

open Harness

(* One storm; returns (CPU seconds, minor words, the cluster). *)
let storm ?(tracing = true) ?(arrivals = 200) ~n ~k () =
  let rig, c = Rig.cluster ~tracing ~n ~k () in
  let wl = Rig.workload rig ~rate:3000. ~seed:0x0B5E in
  let wall0 = Sys.time () and words0 = Gc.minor_words () in
  ignore (Rig.drive rig wl ~arrivals);
  Yanc.Cluster.run_for ~tick:0.005 c 0.1;
  (Sys.time () -. wall0, Gc.minor_words () -. words0, c)

(* The trace ids in a node's trace_pipe ("trace=N ..." lines); trace=0
   spans (untraced background beats) don't count toward coverage. *)
let parse_pipe data =
  List.filter_map
    (fun line ->
      List.find_map
        (fun tok ->
          if String.starts_with ~prefix:"trace=" tok then
            match int_of_string_opt (String.sub tok 6 (String.length tok - 6)) with
            | Some 0 | None -> None
            | id -> id
          else None)
        (String.split_on_char ' ' line))
    (String.split_on_char '\n' data)

(* Drain every live node's ring and group by trace id: how many distinct
   traces survive in the rings, and how many of those appear in >= 2
   nodes' rings (the cross-node criterion). Bounded rings drop oldest,
   so this measures the surviving window — which is exactly what an
   operator reading the pipes gets. *)
let coverage c =
  let seen = Hashtbl.create 512 in  (* trace id -> nodes holding it *)
  List.iter
    (fun i ->
      let proc = Y.Layout.node_proc_root (Yanc.Cluster.name_of c i) in
      match
        Fs.read_file
          (Yanc.Controller.fs (Yanc.Cluster.controller c i))
          ~cred (Y.Layout.proc_trace_pipe ~proc)
      with
      | Error _ -> ()
      | Ok data ->
        List.iter
          (fun trace ->
            let nodes = Option.value ~default:[] (Hashtbl.find_opt seen trace) in
            if not (List.mem i nodes) then Hashtbl.replace seen trace (i :: nodes))
          (parse_pipe data))
    (Yanc.Cluster.live_indexes c);
  ( Hashtbl.length seen,
    Hashtbl.fold
      (fun _ nodes acc -> if List.length nodes >= 2 then acc + 1 else acc)
      seen 0 )

let cluster_health c =
  match Yanc.Cluster.live_indexes c with
  | [] -> Error Vfs.Errno.ENOENT
  | i :: _ ->
    Fs.read_file
      (Yanc.Controller.fs (Yanc.Cluster.controller c i))
      ~cred
      (Y.Layout.proc_health ~proc:Y.Layout.cluster_proc_root)

(* Prints the table and returns the BENCH_obs.json artifact. *)
let run () =
  section
    "E21  cluster observability: tracing overhead (min-of-5 wall) and \
     cross-node span coverage";
  row "    n |   k | arrivals | wall_off_s | wall_on_s | overhead%% |  traces | cross-node\n";
  row "  ----+-----+----------+------------+-----------+-----------+---------+-----------\n";
  let point n =
    let last = ref None in
    let wall tracing () =
      let w, _, c = storm ~tracing ~n ~k:4 () in
      if tracing then last := Some c;
      w
    in
    let off, on = min_pair 5 (wall false) (wall true) in
    let total, cross = coverage (Option.get !last) in
    let overhead = (on -. off) /. off *. 100. in
    row "  %3d | %3d | %8d | %10.4f | %9.4f | %+8.1f%% | %7d | %10d\n" n 4
      200 off on overhead total cross;
    Json.(
      Obj
        [ "n", Int n; "wall_off_s", Float (6, off); "wall_on_s", Float (6, on);
          "overhead_pct", Float (2, overhead); "traces", Int total;
          "cross_node_traces", Int cross ])
  in
  let points = List.map point [ 1; 2; 4 ] in
  Json.(
    Obj
      [ "bench", String "e21_observability";
        "generated_by", String "dune exec bench/main.exe -- artifacts";
        "topology", String "fat-tree:4"; "arrivals", Int 200; "reps", Int 5;
        "note",
        String
          "wall seconds are min-of-5 interleaved; coverage is distinct trace \
           ids surviving in the nodes' bounded span rings, cross_node = ids \
           present in >= 2 rings";
        "points", List points ])
