module Fs = Vfs.Fs
module Reg = Telemetry.Registry

type op_state =
  | Queued   (* in [queue], awaiting its visibility time *)
  | Stashed  (* held in a partition stash *)
  | Done     (* applied to the target replica *)
  | Dead     (* coalesced away by a later write to the same path *)

type pending_op = {
  due : float;
  origin : int;
  target : int;
  op : Vfs.Op.t;
  (* The originating trace context [(id, origin time, origin round)],
     carried across the wire so the applying replica's tracer can
     adopt it — cross-node trace propagation. *)
  trace : (int * float * int) option;
  mutable state : op_state;
}

type t = {
  consistency : Consistency.t;
  rtt : float;
  replicas : Fs.t array;
  mutable clock : float;
  queue : pending_op Queue.t;      (* kept in arrival order *)
  mutable queued_live : int;       (* non-[Dead] entries in [queue] *)
  partitioned : bool array;
  stash : pending_op list array;   (* held while the target is cut off;
                                      newest first, reversed on heal *)
  (* Still-queued content ops per (target, path string) — the window a
     later truncate-to-zero may coalesce over. *)
  candidates : (string, pending_op list) Hashtbl.t array;
  (* Still-queued default-mode [Create]s per (target, path string): a
     following whole-file [Write] makes them redundant, because a
     replayed [Write] creates its file on ENOENT. *)
  creates : (string, pending_op) Hashtbl.t array;
  mutable applying : bool;         (* replication-echo guard *)
  (* Sharded replication: when set, an op travels only to the replicas
     the policy names (minus the origin) instead of every peer — the
     partitioned-ownership optimisation. [None] from the policy means
     "everywhere" (metadata, unsharded paths). *)
  mutable route : (Vfs.Op.t -> origin:int -> int list option) option;
  (* Path-prefix consistency overrides, checked before any xattr probe:
     a cheap string compare on the hot path instead of an ancestor walk. *)
  mutable prefix_consistency : (string * Consistency.t) list;
  (* Cross-node tracing: [tracer i] is replica [i]'s tracer (None for a
     replica with no controller, e.g. bare DFS tests), [key_of] maps an
     op to the correlation key the applying side should re-stamp (a
     flow path key, so the owner's driver resumes the trace on
     install). Installed by the sharded controller; both hooks live
     outside the record so a bare cluster never pays them. *)
  mutable trace_tracer : (int -> Telemetry.Tracer.t option) option;
  mutable trace_key_of : (Vfs.Op.t -> string option) option;
  (* Span dedup: a traced burst (mkdir + attribute writes of one flow,
     or one drain batch) is one logical hop, so [dfs.forward]/[dfs.apply]
     record ONE span per consecutive same-trace run, not one per op —
     the adopt/stamp still happens per op (resume correctness), only
     the ring record is elided. Apply dedup is per target (a drain
     interleaves targets op by op, so a shared cursor would miss every
     time). Keeps tracing-on overhead bounded by bursts, not op count. *)
  mutable last_fwd_trace : int;
  last_apply : int array;
  mutable probe_xattrs : bool;
  replay_busy : float array;       (* CPU seconds each replica spent
                                      applying peers' ops *)
  (* The replication stream's [dfs.*] counters, on replica 0's
     registry: one seat, so a rollup over every replica's registry
     never double-counts the shared stream. *)
  ops_originated : Reg.counter;
  ops_replicated : Reg.counter;
  ops_coalesced : Reg.counter;
  ops_synced : Reg.counter;
  ops_dropped : Reg.counter;
  replay_failed : Reg.counter;
  mutable writer_blocked_s : float;
  mutable max_queue : int;
}

let tracer_of t i =
  match t.trace_tracer with None -> None | Some f -> f i

(* Run [f], a replica's replay work, with [applying] set (so its
   re-emitted ops are not forwarded again) and its CPU time charged to
   [target]'s replay account. *)
let replaying t target f =
  t.applying <- true;
  let t0 = Sys.time () in
  Fun.protect
    ~finally:(fun () ->
      t.applying <- false;
      t.replay_busy.(target) <- t.replay_busy.(target) +. (Sys.time () -. t0))
    f

(* Replay one op on [target]; inside [replaying]. *)
let apply_op ?trace ?cursor t target op =
  Reg.incr t.ops_replicated;
  let replay () =
    if Result.is_error (Fs.replay ?cursor t.replicas.(target) op) then
      Reg.incr t.replay_failed
  in
  match trace with
  | None -> replay ()
  | Some (id, origin, origin_round) -> (
    match tracer_of t target with
    | Some tr when Telemetry.Tracer.enabled tr ->
      (* The op arrived carrying its originating trace: adopt it so
         the replay's span joins the cross-node trace, and re-stamp
         the correlation key so this replica's driver resumes it at
         install time (dfs.forward → dfs.apply → driver.flow_mod). *)
      Telemetry.Tracer.adopt tr ~trace:id ~origin ~origin_round;
      (match t.trace_key_of with
      | Some key_of -> (
        match key_of op with
        | Some key -> Telemetry.Tracer.stamp tr key
        | None -> ())
      | None -> ());
      let first = t.last_apply.(target) <> id in
      if first then t.last_apply.(target) <- id;
      Fun.protect
        ~finally:(fun () -> Telemetry.Tracer.clear tr)
        (fun () ->
          if first then Telemetry.Tracer.span tr ~stage:"dfs.apply" replay
          else replay ())
    | _ -> replay ())

let apply ?trace t target op =
  replaying t target (fun () -> apply_op ?trace t target op)

let stash_op t p =
  p.state <- Stashed;
  t.stash.(p.target) <- p :: t.stash.(p.target)

(* Last-write-wins coalescing (the dirty-set discipline, applied to the
   replication stream): [Fs.write_file] on an existing file emits
   Truncate{size=0} + Write, so a truncate-to-zero supersedes every
   content op still queued for the same (target, path) — repeated
   rewrites of one flow field or version file replicate as one final
   state, O(dirty) for the replica instead of O(writes). Structural ops
   close the window conservatively: a rename/unlink/create boundary
   means earlier content may end up at another path, so nothing queued
   before it is ever coalesced across it. [key] is the op's path as a
   string, built once per forwarded op. *)
let coalesce_into t ~key (p : pending_op) =
  let cands = t.candidates.(p.target) in
  match p.op with
  | Vfs.Op.Truncate { size = 0; _ } ->
    let prior = Option.value ~default:[] (Hashtbl.find_opt cands key) in
    List.iter
      (fun q ->
        if q.state = Queued then begin
          q.state <- Dead;
          t.queued_live <- t.queued_live - 1;
          Reg.incr t.ops_coalesced
        end)
      prior;
    Hashtbl.replace cands key [ p ]
  | Vfs.Op.Write { off; _ } ->
    (* A whole-file write makes a still-queued [Create] of the same
       file redundant when replaying the [Write] creates it the same:
       root's, default mode. *)
    if off = 0 then begin
      match Hashtbl.find_opt t.creates.(p.target) key with
      | Some c when c.state = Queued ->
        c.state <- Dead;
        t.queued_live <- t.queued_live - 1;
        Reg.incr t.ops_coalesced;
        Hashtbl.remove t.creates.(p.target) key
      | _ -> ()
    end;
    let prior = Option.value ~default:[] (Hashtbl.find_opt cands key) in
    Hashtbl.replace cands key (p :: prior)
  | Vfs.Op.Truncate _ ->
    let prior = Option.value ~default:[] (Hashtbl.find_opt cands key) in
    Hashtbl.replace cands key (p :: prior)
  | Vfs.Op.Create { mode; uid = 0; gid = 0; _ } when mode land 0o7777 = 0o644 ->
    Hashtbl.reset cands;
    Hashtbl.replace t.creates.(p.target) key p
  | op when Vfs.Op.is_structural op ->
    Hashtbl.reset cands;
    Hashtbl.reset t.creates.(p.target)
  | _ -> ()

let enqueue t ~key p =
  if t.partitioned.(p.target) then stash_op t p
  else begin
    coalesce_into t ~key p;
    Queue.push p t.queue;
    t.queued_live <- t.queued_live + 1;
    t.max_queue <- max t.max_queue t.queued_live
  end

let consistency_xattr = "user.consistency"

(* The nearest [user.consistency] annotation on the path or an ancestor
   overrides the cluster-wide model (paper §5.1). *)
let annotated_consistency t ~origin path =
  if not t.probe_xattrs then t.consistency
  else begin
    let fs = t.replicas.(origin) in
    let rec probe = function
      | None -> t.consistency
      | Some p -> (
        match
          Fs.suspended fs (fun () ->
              Fs.getxattr fs ~cred:Vfs.Cred.root p ~name:consistency_xattr)
        with
        | Ok v -> (
          match String.trim v with
          | "strict" -> Consistency.Sequential
          | "relaxed" -> Consistency.Eventual { propagation_s = 1.0 }
          | _ -> t.consistency)
        | Error _ -> probe (Vfs.Path.parent p))
    in
    probe (Some path)
  end

(* [key] starts with [prefix]: plain recursion, as [Schema.in_family]
   does ([String.starts_with] makes a closure per call). *)
let rec same_from prefix key i =
  i >= String.length prefix || (Char.equal prefix.[i] key.[i] && same_from prefix key (i + 1))

let has_prefix prefix key =
  String.length key >= String.length prefix && same_from prefix key 0

(* A registered path prefix overrides the model without touching the
   file system: the form the sharded controller uses, so the check on
   every replicated op is a string compare, with no allocation. [key]
   is [path] as a string. *)
let rec consistency_in t ~origin ~key path = function
  | (prefix, c) :: rest ->
    if has_prefix prefix key then c else consistency_in t ~origin ~key path rest
  | [] -> annotated_consistency t ~origin path

let consistency_of t ~origin ~key path =
  consistency_in t ~origin ~key path t.prefix_consistency

let effective_consistency t ~origin path =
  consistency_of t ~origin ~key:(Vfs.Path.to_string path) path

(* The replicas an op travels to: everyone but the origin, unless a
   routing policy narrows it (sharded subtrees go only to their
   replica set). *)
let iter_targets t ~origin op f =
  let everyone () =
    Array.iteri (fun target _ -> if target <> origin then f target) t.replicas
  in
  match t.route with
  | None -> everyone ()
  | Some route -> (
    match route op ~origin with
    | None -> everyone ()
    | Some l ->
      List.iter
        (fun i -> if i <> origin && i >= 0 && i < Array.length t.replicas then f i)
        l)

let on_origin_op t origin op =
  if not t.applying then begin
    Reg.incr t.ops_originated;
    (* Capture the ambient trace (if the origin's controller is inside
       one) so it rides the op to every target replica. *)
    let trace =
      match tracer_of t origin with
      | Some tr -> Telemetry.Tracer.context tr
      | None -> None
    in
    let forward () =
      if t.partitioned.(origin) then
        (* The origin is cut off: remember its writes for every peer. *)
        iter_targets t ~origin op (fun target ->
            t.stash.(origin) <-
              { due = t.clock; origin; target; op; trace; state = Stashed }
              :: t.stash.(origin))
      else begin
        let path = Vfs.Op.path op in
        let key = Vfs.Path.to_string path in
        let consistency = consistency_of t ~origin ~key path in
        match consistency with
        | Consistency.Sequential ->
          (* Synchronous round: the writer stalls for a full RTT per
             replica; partitioned targets still stash. *)
          t.writer_blocked_s <-
            t.writer_blocked_s
            +. Consistency.write_blocks_for consistency ~rtt:t.rtt
                 ~replicas:(Array.length t.replicas);
          iter_targets t ~origin op (fun target ->
              if t.partitioned.(target) then
                stash_op t
                  { due = t.clock; origin; target; op; trace; state = Stashed }
              else apply ?trace t target op)
        | Consistency.Close_to_open _ | Consistency.Eventual _ ->
          let due = t.clock +. Consistency.visibility_delay consistency in
          iter_targets t ~origin op (fun target ->
              enqueue t ~key { due; origin; target; op; trace; state = Queued })
      end
    in
    match (trace, tracer_of t origin) with
    | Some (id, _, _), Some tr when t.last_fwd_trace <> id ->
      t.last_fwd_trace <- id;
      Telemetry.Tracer.span tr ~stage:"dfs.forward" forward
    | _ -> forward ()
  end

let pending t =
  t.queued_live + Array.fold_left (fun acc s -> acc + List.length s) 0 t.stash

let make ~consistency ~rtt replicas =
  let n = Array.length replicas in
  let registry = Fs.registry replicas.(0) in
  let counter name = Reg.counter registry ("dfs." ^ name) in
  let t =
    { consistency; rtt; replicas; clock = 0.;
      queue = Queue.create (); queued_live = 0;
      partitioned = Array.make n false;
      stash = Array.make n [];
      candidates = Array.init n (fun _ -> Hashtbl.create 64);
      creates = Array.init n (fun _ -> Hashtbl.create 64);
      applying = false; route = None;
      prefix_consistency = [];
      trace_tracer = None; trace_key_of = None;
      last_fwd_trace = 0; last_apply = Array.make n 0;
      probe_xattrs = true; replay_busy = Array.make n 0.;
      ops_originated = counter "ops_originated";
      ops_replicated = counter "ops_replicated";
      ops_coalesced = counter "ops_coalesced";
      ops_synced = counter "ops_synced";
      ops_dropped = counter "ops_dropped";
      replay_failed = counter "replay_failed";
      writer_blocked_s = 0.; max_queue = 0 }
  in
  Array.iteri (fun i fs -> ignore (Fs.subscribe fs (on_origin_op t i))) replicas;
  (* Sampled state, not counts: gauges beside the counters. *)
  let gauge name f = Reg.gauge registry ("dfs." ^ name) f in
  gauge "writer_blocked_s" (fun () -> t.writer_blocked_s);
  gauge "max_queue" (fun () -> float_of_int t.max_queue);
  gauge "pending" (fun () -> float_of_int (pending t));
  gauge "nodes" (fun () -> float_of_int n);
  t

let create ?(consistency = Consistency.nfs) ?(rtt = 0.001) ~n () =
  make ~consistency ~rtt (Array.init (max 1 n) (fun _ -> Fs.create ()))

let of_replicas ?(consistency = Consistency.nfs) ?(rtt = 0.001) replicas =
  make ~consistency ~rtt (Array.of_list replicas)

let node t i = t.replicas.(i)

let nodes t = Array.to_list t.replicas

let size t = Array.length t.replicas

let consistency t = t.consistency

let now t = t.clock

let drain t ~all =
  (* One pass over the queue: due ops apply (or stash, if their target
     got cut off meanwhile), not-yet-due ops re-queue behind them in
     arrival order, dead ops fall out. *)
  let n = Queue.length t.queue in
  let due = ref [] in
  for _ = 1 to n do
    let p = Queue.pop t.queue in
    match p.state with
    | Dead -> () (* coalesced away *)
    | Queued when all || p.due <= t.clock ->
      t.queued_live <- t.queued_live - 1;
      if t.partitioned.(p.target) then stash_op t p
      else begin
        p.state <- Done;
        due := p :: !due
      end
    | Queued -> Queue.push p t.queue
    | Stashed | Done -> () (* unreachable: such ops left the queue *)
  done;
  (* Replay the due ops in arrival order, one consecutive run with the
     same target at a time: the run is timed once and shares one replay
     cursor, so a flow directory's burst of field writes walks its path
     once. *)
  let due = Array.of_list (List.rev !due) in
  let m = Array.length due in
  let last_of_run i = i = m - 1 || due.(i + 1).target <> due.(i).target in
  let rec run cursor i =
    let p = due.(i) in
    apply_op ?trace:p.trace ~cursor t p.target p.op;
    if last_of_run i then i + 1 else run cursor (i + 1)
  in
  let i = ref 0 in
  while !i < m do
    let start = !i in
    replaying t due.(start).target (fun () -> i := run (Fs.cursor ()) start)
  done

let advance t dt =
  t.clock <- t.clock +. dt;
  drain t ~all:false

let flush t = drain t ~all:true

let stashed t i = List.length t.stash.(i)

let converged t = pending t = 0

let partitioned t i = t.partitioned.(i)

let set_partitioned t i cut =
  if t.partitioned.(i) && not cut then begin
    t.partitioned.(i) <- false;
    (* Heal: deliver everything held for and from this node (the stash
       is newest-first, so replay it reversed to keep arrival order). *)
    let held = List.rev t.stash.(i) in
    t.stash.(i) <- [];
    List.iter
      (fun p ->
        if p.target = i || not t.partitioned.(p.target) then begin
          p.state <- Done;
          apply ?trace:p.trace t p.target p.op
        end
        else stash_op t p)
      held
  end
  else t.partitioned.(i) <- cut

let set_route t route = t.route <- route


let set_tracing t hooks =
  match hooks with
  | None ->
    t.trace_tracer <- None;
    t.trace_key_of <- None
  | Some (tracer, key_of) ->
    t.trace_tracer <- Some tracer;
    t.trace_key_of <- Some key_of

let set_prefix_consistency t prefixes = t.prefix_consistency <- prefixes

let set_xattr_probing t b = t.probe_xattrs <- b

let replay_busy_s t i = t.replay_busy.(i)

(* Anti-entropy: materialise [from_]'s current state under [path] on
   [to_] by replaying synthetic ops — the state transfer a replica-set
   change needs (a promoted secondary, a joining node). Idempotent over
   whatever the target already holds; files are truncated + rewritten,
   symlinks re-pointed. *)
let sync_subtree t ~from_ ~to_ path =
  let fs = t.replicas.(from_) in
  let cred = Vfs.Cred.root in
  let put op =
    Reg.incr t.ops_synced;
    apply t to_ op
  in
  let copy p (st : Fs.stat) =
    match st.kind with
    | Fs.Dir -> put (Vfs.Op.Mkdir { path = p; mode = st.mode; uid = st.uid; gid = st.gid })
    | Fs.File -> (
      match Fs.suspended fs (fun () -> Fs.read_file fs ~cred p) with
      | Error _ -> ()
      | Ok data ->
        put (Vfs.Op.Create { path = p; mode = st.mode; uid = st.uid; gid = st.gid });
        put (Vfs.Op.Truncate { path = p; size = 0 });
        if data <> "" then put (Vfs.Op.Write { path = p; off = 0; data }))
    | Fs.Symlink -> (
      match Fs.suspended fs (fun () -> Fs.readlink fs ~cred p) with
      | Error _ -> ()
      | Ok target ->
        put (Vfs.Op.Unlink { path = p });
        put (Vfs.Op.Symlink { path = p; target }))
  in
  let before = Reg.value t.ops_synced in
  (match
     Fs.suspended fs (fun () ->
         Fs.fold fs ~cred path ~init:() (fun () p st ->
             copy p st;
             ((), `Continue)))
   with
  | Ok () | Error _ -> ());
  Reg.value t.ops_synced - before

(* A killed node's not-yet-visible ops never left the box: drop them
   from the queue (the op-log tail that died with the process). *)
let drop_origin_pending t origin =
  let dropped = ref 0 in
  Queue.iter
    (fun p ->
      if p.state = Queued && p.origin = origin then begin
        p.state <- Dead;
        t.queued_live <- t.queued_live - 1;
        incr dropped
      end)
    t.queue;
  Reg.add t.ops_dropped !dropped;
  !dropped
