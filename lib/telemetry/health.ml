(* Declarative health/SLO probes over a registry snapshot — the policy
   half of /yanc/.proc/health. A probe names a series, a limit and the
   severity of exceeding it; evaluation is a pure function of one
   snapshot, so the same table judges a single node (its own snapshot)
   and the fleet (the merged rollup) — a series a snapshot doesn't
   carry is simply not applicable there. *)

type level = Ok | Warn | Crit

type probe = {
  name : string;     (* short probe name, e.g. "unowned_shards" *)
  series : string;   (* the snapshot series judged *)
  breach : level;    (* severity when value > limit *)
  limit : float;
  why : string;      (* one line: what a breach means *)
}

type verdict = { probe : probe; level : level; value : float option }

(* Crit = the control plane is failing its contract (switches dead,
   shards orphaned, writes lost, takeover over budget). Warn = degraded
   observability or latency headroom — real information, but a storm
   legitimately overruns a trace ring, so it must not fail a post-storm
   health gate. *)
let defaults =
  [ { name = "dead_switches"; series = "driver.dead_switches";
      breach = Crit; limit = 0.;
      why = "a driver exhausted its retries and declared the switch Dead" };
    { name = "fs_errors"; series = "driver.fs_errors"; breach = Crit;
      limit = 0.;
      why = "driver-side file-system writes failed (state may be stale)" };
    { name = "policy_fs_errors"; series = "policy.fs_errors"; breach = Crit;
      limit = 0.;
      why = "policyd file-system writes failed (flows or .errors/ stale)" };
    { name = "app_fs_errors"; series = "app.fs_errors"; breach = Crit;
      limit = 0.;
      why = "a daemon's flow or packet-out writes failed (paths missing)" };
    { name = "cluster_fs_errors"; series = "cluster.fs_errors";
      breach = Crit; limit = 0.;
      why = "a lease, shard claim or cluster record write failed" };
    { name = "unowned_shards"; series = "cluster.unowned_shards";
      breach = Crit; limit = 0.;
      why = "switches no live node attaches (orphaned by a death)" };
    { name = "takeover_latency"; series = "cluster.takeover.latency.p99";
      breach = Crit; limit = 5.;
      why = "lease-expiry takeover exceeded the 5 s reclaim budget" };
    { name = "install_rounds"; series = "rounds.switch.install.p99";
      breach = Warn; limit = 256.;
      why = "packet-in to hardware-install p99 exceeds 256 control rounds" };
    { name = "ring_overruns"; series = "trace.dropped"; breach = Warn;
      limit = 0.;
      why = "trace ring overran before being drained (spans lost)" } ]

let evaluate ?(probes = defaults) snapshot =
  List.map
    (fun p ->
      match Registry.find snapshot p.series with
      | None -> { probe = p; level = Ok; value = None }
      | Some v ->
        { probe = p;
          level = (if v > p.limit then p.breach else Ok);
          value = Some v })
    probes

let worst verdicts =
  List.fold_left
    (fun acc v ->
      match (acc, v.level) with
      | Crit, _ | _, Crit -> Crit
      | Warn, _ | _, Warn -> Warn
      | Ok, Ok -> Ok)
    Ok verdicts

let level_to_string = function Ok -> "ok" | Warn -> "warn" | Crit -> "crit"

(* Only Crit is a breach of contract; Warn degrades the report but not
   the exit code (the CI gate "healthy post-storm fleet exits 0" relies
   on this — storms overrun trace rings by design). *)
let exit_code = function Crit -> 1 | Ok | Warn -> 0

let render verdicts =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "status %s\n" (level_to_string (worst verdicts)));
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "%s %s value=%s limit=%s series=%s\n"
           v.probe.name (level_to_string v.level)
           (match v.value with
           | None -> "na"
           | Some f -> Registry.render_value f)
           (Registry.render_value v.probe.limit)
           v.probe.series))
    verdicts;
  Buffer.contents b

(* The first line of a rendered report, parsed back — what yancctl and
   the bench gates use to turn a health *file* into an exit code. *)
let status_of_render s =
  match String.index_opt s '\n' with
  | None -> None
  | Some i -> (
    match String.split_on_char ' ' (String.sub s 0 i) with
    | [ "status"; "ok" ] -> Some Ok
    | [ "status"; "warn" ] -> Some Warn
    | [ "status"; "crit" ] -> Some Crit
    | _ -> None)
