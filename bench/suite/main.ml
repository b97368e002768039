(* The repo benchmark: flow-setup throughput and latency of the yanc
   controller on four workloads, in wall time, with a per-layer trace.

     main.exe run [--workload W] [--seed N] [--seconds S] [--reps N]
                  [--trace 0|1] [--size full|toy] [--json FILE]
     main.exe check [--size full|toy]

   A run starts a fixed number of child processes, the episodes,
   strictly one after another. Each builds its rig (set-up), runs one
   measured phase of a fixed size on its own seed, checks its output
   and prints its values. The count is [--reps], or else [--seconds]
   divided by the workload's nominal episode length: a constant, so a
   faster commit runs no more episodes than a slower one. Each metric
   is the median over the episodes, except the latency percentiles,
   which are taken over every episode's samples pooled (see
   [Workloads.spec]). With [--trace 1] the episodes come in pairs on one
   seed, untraced then traced: the per-layer metrics come from the
   traced ones, the pair's difference is the trace overhead, and every
   count must agree within a pair. [check] is [run --trace 1 --reps 2]
   over every workload. The last line of a run is one JSON object:
   correct, attempted, failed, metrics. *)

(* --- metric catalogue ------------------------------------------------------ *)

(* How a run reduces its episodes to one value. *)
type reduce = Median | Pooled of float  (* percentile of all samples *)

(* The samples of one round share their start and end, so the tail is
   counted in rounds. A run of storm_k16 holds ~100 arrival rounds: p80
   has ~16 beyond it, p90 only ~8. *)
let tail = 0.8

let end_to_end =
  [ ("installs_per_s", "1/s", Median);
    ("install_latency_ms.p50", "ms", Pooled 0.5);
    ("install_latency_ms.p80", "ms", Pooled tail);
    ("setup_s", "s", Median); ("heap_peak_mb", "MB", Median) ]

let timers =
  List.map Probe.layer_name Probe.layers @ [ "unattributed" ]

let count_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ratio" then "ratio"
  else if ends "bytes_per_install" then "B"
  else if ends "minor_words_per_install" then "words"
  else "count"

let is_size n = String.starts_with ~prefix:"count." n

let layer_counts = List.filter (fun n -> not (is_size n)) Workloads.count_names

(* Deterministic per seed: compared within every untraced/traced pair. *)
let count_names = Workloads.count_names @ [ "count.latency_samples" ]

let sizes = List.filter is_size count_names

(* A traced run's JSON carries [per_layer]; its table adds
   [layer_detail] (an untraced run's table adds the counts). Not every
   layer runs in every workload (the cluster
   steps as one call, only policy_edit compiles), so the JSON gives each
   time as a share of the measured wall: a bare time would read exactly
   0 on every run of a workload that skips the layer. *)
let per_layer =
  List.map (fun t -> (t ^ ".share_pct", "%")) timers
  @ [ ("measured.wall_s", "s"); ("trace_overhead_pct", "%");
      ("yanc.scheduler.runtime_s", "s");
      ("yanc.cluster.max_node_busy.cpu_pct", "%");
      ("dfs.replay_busy.cpu_pct", "%") ]
  @ List.map (fun n -> (n, count_unit n)) layer_counts

let layer_detail =
  List.concat_map
    (fun t -> [ (t ^ ".self_s", "s"); (t ^ ".per_op_us", "us") ])
    timers
  @ List.map (fun n -> (n, "s")) Workloads.cpu_names
  @ List.map (fun n -> (n, "count")) sizes

(* --- one episode (the child process) --------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Prints one "name value" line per metric, one "sample ms round" line
   per latency sample (the round is the mark it started from), and one
   "fail reason" line per failed check. *)
let episode w ~size ~seed ~traced =
  let probe = Probe.create ~traced in
  let r = Workloads.run w ~size ~seed probe in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let wall_s = r.marks.(Array.length r.marks - 1) -. r.marks.(0) in
  let per_op s = 1e6 *. s /. float_of_int (max 1 r.ops) in
  let share s = 100. *. s /. wall_s in
  let self =
    List.map (fun l -> (Probe.layer_name l, Probe.self_s probe l)) Probe.layers
  in
  (* policy.compile re-runs work already inside yanc.scheduler.tick *)
  let attributed =
    List.fold_left
      (fun a (n, s) -> if n = Probe.layer_name Probe.Compile then a else a +. s)
      0. self
  in
  let times = self @ [ ("unattributed", wall_s -. attributed) ] in
  let out name v = Printf.printf "%s %.17g\n" name v in
  out "installs_per_s" (float_of_int r.installs /. wall_s);
  out "setup_s" r.setup_s;
  out "heap_peak_mb" heap_mb;
  List.iter
    (fun (n, s) ->
      out (n ^ ".self_s") s;
      out (n ^ ".share_pct") (share s);
      out (n ^ ".per_op_us") (per_op s))
    times;
  out "measured.wall_s" wall_s;
  List.iter (fun (n, v) -> out n v) r.cpu;
  let cpu n = List.assoc n r.cpu in
  out "yanc.scheduler.runtime_s"
    (List.fold_left
       (fun a app -> a +. cpu (Workloads.sched_cpu_name app))
       0. Workloads.sched_apps);
  out "yanc.cluster.max_node_busy.cpu_pct"
    (share (cpu "yanc.cluster.max_node_busy_s"));
  out "dfs.replay_busy.cpu_pct" (share (cpu "dfs.replay_busy_s"));
  List.iter (fun (n, v) -> out n v) r.counts;
  out "count.latency_samples" (float_of_int (List.length r.requests));
  out "attempted" (float_of_int r.attempted);
  out "failed" (float_of_int r.failed);
  List.iter
    (fun (a, b) ->
      Printf.printf "sample %.17g %d\n" (1e3 *. (r.marks.(b) -. r.marks.(a))) a)
    r.requests;
  List.iter (fun f -> Printf.printf "fail %s\n" f) r.failures

(* --- the runner (the parent) ----------------------------------------------- *)

type ep = {
  seed : int;
  traced : bool;
  values : (string, float) Hashtbl.t;
  samples : float array;  (* latency ms, sorted *)
  rounds : (float * int) list;  (* each sample with its start round *)
  failures : string list;
  missing : (string, unit) Hashtbl.t;  (* names read but not reported *)
  duration : float;
}

let size_name = function Workloads.Full -> "full" | Workloads.Toy -> "toy"

let spawn w ~size ~seed ~traced =
  let t0 = Probe.now () in
  let args =
    [| Sys.executable_name; "episode"; "--workload"; Workloads.name w;
       "--seed"; string_of_int seed; "--trace"; (if traced then "1" else "0");
       "--size"; size_name size |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let values = Hashtbl.create 128 in
  let failures = ref [] and rounds = ref [] in
  let bad line = failures := ("unparsable line: " ^ line) :: !failures in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | "fail" :: _ :: _ ->
         failures := String.sub line 5 (String.length line - 5) :: !failures
       | [ "sample"; ms; round ] -> (
         match (float_of_string_opt ms, int_of_string_opt round) with
         | Some ms, Some round -> rounds := (ms, round) :: !rounds
         | _ -> bad line)
       | [ key; v ] -> (
         match float_of_string_opt v with
         | Some f -> Hashtbl.replace values key f
         | None -> bad line)
       | _ -> bad line
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c ->
    failures := Printf.sprintf "episode exited with code %d" c :: !failures
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failures := Printf.sprintf "episode killed by signal %d" s :: !failures);
  let samples = Array.of_list (List.map fst !rounds) in
  Array.sort compare samples;
  { seed; traced; values; samples; rounds = !rounds;
    failures = List.rev !failures; missing = Hashtbl.create 1;
    duration = Probe.now () -. t0 }

(* A name the runner reads must be in every episode's output: a missing
   one reads NaN and fails the run, so a misspelt or dropped metric
   cannot pass as 0. *)
let value ep name =
  match Hashtbl.find_opt ep.values name with
  | Some v -> v
  | None ->
    Hashtbl.replace ep.missing name ();
    nan

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, as Python's statistics.quantiles(n=4)
   (exclusive method) gives them; the median for a single value. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q j =
      let m = float_of_int (n + 1) *. float_of_int j /. 4. in
      let k = int_of_float m in
      let k = max 1 (min (n - 1) k) in
      let frac = m -. float_of_int k in
      a.(k - 1) +. ((a.(k) -. a.(k - 1)) *. frac)
    in
    (q 1, q 3)

(* Episode [i] of a run on seed [s]. Distinct seeds make the rounds
   pooled for the latency percentiles independent of each other. *)
let episode_seed s i = s + (i * 1_000_003)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  (* name, unit, reported value, the per-episode values behind it *)
  metrics : (string * string * float * float list) list;
  detail : (string * string * float * float list) list;  (* table only *)
  episodes : int;
  problems : string list;
}

let run_workload w ~size ~seed ~episodes ~trace =
  let plan =
    if trace then
      List.concat
        (List.init (max 1 (episodes / 2)) (fun i ->
             let s = episode_seed seed i in
             [ (s, false); (s, true) ]))
    else List.init episodes (fun i -> (episode_seed seed i, false))
  in
  let eps =
    List.mapi
      (fun i (seed, traced) ->
        let ep = spawn w ~size ~seed ~traced in
        Printf.eprintf "  %s episode %d (seed %d)%s: %.2f s\n%!"
          (Workloads.name w) (i + 1) seed
          (if traced then ", traced" else "")
          ep.duration;
        ep)
      plan
  in
  let untraced = List.filter (fun e -> not e.traced) eps in
  let traced = List.filter (fun e -> e.traced) eps in
  let rec pairs = function u :: t :: rest -> (u, t) :: pairs rest | _ -> [] in
  let pairs = if trace then pairs eps else [] in
  (* Same seed, same program: every count must agree between the two
     episodes of a pair. The program boxes a float only when a
     wall-timed histogram sets a new maximum, so the GC counts agree to
     0.1% (or one collection), not exactly. *)
  let agree n a b =
    if String.starts_with ~prefix:"gc." n then
      Float.abs (a -. b) <= Float.max 1. (1e-3 *. Float.abs a)
    else a = b
  in
  let drift =
    List.concat_map
      (fun (u, t) ->
        List.filter_map
          (fun n ->
            if agree n (value u n) (value t n) then None
            else
              Some
                (Printf.sprintf "seed %d: %s differs between untraced and traced"
                   u.seed n))
          count_names)
      pairs
  in
  let per_episode from name = List.map (fun e -> value e name) from in
  let medians from =
    List.map (fun (n, u) ->
        let xs = per_episode from n in
        (n, u, median xs, xs))
  in
  let metrics, detail =
    if not trace then
      let pooled = Array.concat (List.map (fun e -> e.samples) untraced) in
      Array.sort compare pooled;
      let cut = percentile pooled tail in
      let tail_rounds =
        List.concat_map
          (fun e ->
            List.filter_map
              (fun (ms, r) -> if ms > cut then Some (e.seed, r) else None)
              e.rounds)
          untraced
        |> List.sort_uniq compare |> List.length
      in
      ( List.map
          (fun (n, u, reduce) ->
            match reduce with
            | Median ->
              let xs = per_episode untraced n in
              (n, u, median xs, xs)
            | Pooled p ->
              ( n, u, percentile pooled p,
                List.map (fun e -> percentile e.samples p) untraced ))
          end_to_end,
        medians untraced (List.map (fun n -> (n, count_unit n)) count_names)
        @ List.map
            (fun (n, v) -> (n, "count", float_of_int v, [ float_of_int v ]))
            [ ("latency.pooled_samples", Array.length pooled);
              ("latency.rounds_beyond_p80", tail_rounds) ] )
    else
      let overheads =
        List.map
          (fun (u, t) ->
            let u = value u "installs_per_s" and t = value t "installs_per_s" in
            100. *. (u -. t) /. u)
          pairs
      in
      ( List.map
          (fun (n, u) ->
            if n = "trace_overhead_pct" then (n, u, median overheads, overheads)
            else
              let xs = per_episode traced n in
              (n, u, median xs, xs))
          per_layer,
        medians traced layer_detail )
  in
  let sum name =
    List.fold_left (fun a e -> a + int_of_float (value e name)) 0 eps
  in
  let attempted = sum "attempted" and failed = sum "failed" in
  let problems =
    List.concat_map
      (fun e ->
        let tag =
          Printf.sprintf "seed %d%s: " e.seed (if e.traced then ", traced" else "")
        in
        List.map (fun f -> tag ^ f) e.failures
        @ Hashtbl.fold
            (fun n () acc -> (tag ^ "episode did not report " ^ n) :: acc)
            e.missing [])
      eps
    @ drift
  in
  { correct = problems = []; attempted; failed; metrics; detail;
    episodes = List.length eps; problems }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_of o =
  let metrics =
    List.map
      (fun (n, u, v, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      o.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " metrics)

let report w o =
  Printf.printf "%s: %d episodes, %d attempted, %d failed, %s\n"
    (Workloads.name w) o.episodes o.attempted o.failed
    (if o.correct then "correct" else "INCORRECT");
  List.iter (fun p -> Printf.printf "  check failed: %s\n" p) o.problems;
  Printf.printf "  %-46s %12s %12s %12s %4s  %s\n" "metric" "value" "q1" "q3"
    "n" "unit";
  List.iter
    (fun (n, u, v, xs) ->
      let q1, q3 = quartiles xs in
      Printf.printf "  %-46s %12.6g %12.6g %12.6g %4d  %s\n" n v q1 q3
        (List.length xs) u)
    (o.metrics @ o.detail)

(* --- command line ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe run [--workload W] [--seed N] [--seconds S] [--reps N] \
     [--trace 0|1] [--size full|toy] [--json FILE]\n\
    \       main.exe check [--size full|toy]\n\
     workloads: storm_k8 storm_k16 policy_edit cluster_n4";
  exit 2

let () =
  let argv = Array.to_list Sys.argv in
  let cmd, args =
    match argv with _ :: cmd :: rest -> (cmd, rest) | _ -> usage ()
  in
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace opts (String.sub key 2 (String.length key - 2)) v;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let opt name = Hashtbl.find_opt opts name in
  let int_opt name =
    Option.map
      (fun v -> match int_of_string_opt v with Some i -> i | None -> usage ())
      (opt name)
  in
  let workloads =
    match opt "workload" with
    | None -> Workloads.all
    | Some s -> (
      match Workloads.of_name s with Some w -> [ w ] | None -> usage ())
  in
  let size =
    match opt "size" with
    | None | Some "full" -> Workloads.Full
    | Some "toy" -> Workloads.Toy
    | Some _ -> usage ()
  in
  let seed w =
    match int_opt "seed" with Some s -> s | None -> Workloads.default_seed w
  in
  let trace =
    match opt "trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  match cmd with
  | "episode" -> (
    match workloads with
    | [ w ] -> episode w ~size ~seed:(seed w) ~traced:trace
    | _ -> usage ())
  | "run" | "check" ->
    let trace, reps =
      if cmd = "check" then (true, Some 2) else (trace, int_opt "reps")
    in
    let seconds =
      match opt "seconds" with
      | None -> 30.
      | Some s -> (
        match float_of_string_opt s with Some f when f > 0. -> f | _ -> usage ())
    in
    let episodes w =
      match reps with
      | Some n when n >= 1 -> n
      | Some _ -> usage ()
      | None ->
        max 1 (int_of_float (seconds /. (Workloads.spec w size).episode_s))
    in
    let all_correct = ref true in
    List.iter
      (fun w ->
        let o =
          run_workload w ~size ~seed:(seed w) ~episodes:(episodes w) ~trace
        in
        if not o.correct then all_correct := false;
        report w o;
        let line = json_of o in
        (match opt "json" with
        | None -> ()
        | Some file ->
          let oc =
            open_out_gen [ Open_append; Open_creat ] 0o644 file
          in
          output_string oc (line ^ "\n");
          close_out oc);
        print_endline line)
      workloads;
    if not !all_correct then exit 1
  | _ -> usage ()
