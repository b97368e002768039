module Y = Yancfs
module OF = Openflow
module Msg = Openflow.Msg

(* Hardware rule identity, (match, priority), as a hashtable key. The
   polymorphic [Hashtbl.hash] samples only the first few scalar nodes of
   a value — on an [Of_match.t], whose record leads with a run of [None]
   wildcards, every distinct match hashes alike and the table degrades
   to one linear bucket. Hash through the packed image instead, which
   folds in exactly the constrained header bits. *)
module Rule_id = struct
  type t = OF.Of_match.t * int

  let equal (m1, p1) (m2, p2) = p1 = p2 && OF.Of_match.equal m1 m2

  let hash (m, p) =
    let r = OF.Of_match.pack_rule m in
    (OF.Of_match.Packed.hash r.OF.Of_match.Packed.mask * 31)
    + (OF.Of_match.Packed.hash r.OF.Of_match.Packed.value * 17)
    + p
end

module Id_tbl = Hashtbl.Make (Rule_id)

(* [ino] is the flow directory's inode at install time: a directory
   deleted and re-created under the same name is a different object
   with a fresh version chain, and the inode is what tells the two
   apart when the new chain's counter sits at or below the cached
   one. *)
type flow_cache_entry = { flow : Y.Flowdir.t; ino : int }

type t = {
  yfs : Y.Yanc_fs.t;
  telemetry : Telemetry.t;
  endpoint : Netsim.Control_channel.endpoint;
  framing : OF.Framing.t;
  notifier : Fsnotify.Notifier.t;
  dialect : OF.Dialect.t;
  tuning : Driver_intf.tuning;
  backoff : Backoff.t;
  mutable next_xid : int32;
  mutable switch_name : string option;
  mutable connected : bool;
  (* Dirty flow keys, coalesced and flushed one batch per step. *)
  commits : Commit_queue.t;
  mutable ports_dirty : bool;
  mutable spool_dirty : bool;
  mutable last_stats : float;
  (* Event-directory subscribers exist (checked at most once per step
     while false): when none do, packet-ins skip the per-event file
     writes entirely and ride the {!Y.Pktin} ring alone. *)
  mutable eventdir_subs : bool;
  mutable steps : int;
  mutable subs_checked_step : int;
  (* --- connection survival ------------------------------------------- *)
  mutable status : Driver_intf.status;
  mutable last_rx : float;          (* last byte received (-inf = never) *)
  mutable next_keepalive : float;
  mutable echo_outstanding : (int32 * float) option;
  mutable seen_generation : int;    (* channel generation last synced to *)
  mutable next_attempt : float;     (* next handshake (re)send *)
  mutable episode_retries : int;    (* attempts in the current outage *)
  mutable handshakes : int;         (* hello+features sends, ever *)
  (* A flow-stats request is out whose reply reconciles the table. *)
  mutable resyncing : bool;
  mutable resync_sent : float;
  mutable handshakes_done : int;    (* features replies, ever *)
  mutable c_disconnects : int;
  mutable c_retries : int;
  mutable c_resyncs : int;
  mutable c_resync_installs : int;
  mutable c_resync_deletes : int;
  mutable c_keepalives : int;
  (* registry series shared by every driver (one namespace) *)
  m_disconnects : Telemetry.Registry.counter;
  m_retries : Telemetry.Registry.counter;
  m_resyncs : Telemetry.Registry.counter;
  m_resync_installs : Telemetry.Registry.counter;
  m_resync_deletes : Telemetry.Registry.counter;
  m_keepalives : Telemetry.Registry.counter;
  m_fs_errors : Telemetry.Registry.counter;
  m_commit_batches : Telemetry.Registry.counter;
  m_commit_keys : Telemetry.Registry.counter;
  m_commit_coalesced : Telemetry.Registry.counter;
  m_commit_adds : Telemetry.Registry.counter;
  m_commit_deletes : Telemetry.Registry.counter;
  m_commit_sweeps : Telemetry.Registry.counter;
  m_commit_latency : Telemetry.Registry.histogram;
  (* Last committed configuration per flow directory name. *)
  cache : (string, flow_cache_entry) Hashtbl.t;
  (* Reverse index over [cache]: hardware rule identity back to the
     directory names claiming it, so stats replies and flow-removed
     events resolve in O(1) instead of folding the whole cache. A
     list because nothing stops two flow files from committing the
     same (match, priority) — hardware holds one entry, the head is
     the name whose actions it carries (most recently installed). *)
  by_match : string list Id_tbl.t;
  (* config.port_down value last pushed to hardware, per port. *)
  pushed_admin : (int, bool) Hashtbl.t;
}

let fresh_xid t =
  let x = t.next_xid in
  t.next_xid <- Int32.add x 1l;
  x

(* A reply reuses its request's [xid]; a request takes a fresh one. *)
let send t ?xid msg =
  let xid = match xid with Some x -> x | None -> fresh_xid t in
  Netsim.Control_channel.send t.endpoint (OF.Dialect.encode t.dialect ~xid msg)

let protocol t = OF.Dialect.name t.dialect

(* Flows go to table 0: the file-system schema is table-free. *)
let flow_add (flow : Y.Flowdir.t) =
  Msg.Flow_mod
    { table_id = 0; of_match = flow.of_match; cookie = flow.cookie;
      command = Msg.Add; idle_timeout = flow.idle_timeout;
      hard_timeout = flow.hard_timeout; priority = flow.priority;
      buffer_id = flow.buffer_id;
      notify_removal = flow.idle_timeout > 0 || flow.hard_timeout > 0;
      actions = flow.actions }

(* DELETE_STRICT: a rule's identity is (match, priority), and a
   wildcard delete would take out siblings sharing the match. *)
let flow_delete_strict ~priority of_match =
  Msg.Flow_mod
    { table_id = 0; of_match; cookie = 0L; command = Msg.Delete_strict;
      idle_timeout = 0; hard_timeout = 0; priority; buffer_id = None;
      notify_removal = false; actions = [] }

let flow_stats_request =
  Msg.Stats_request
    (Msg.Flow_stats_req { table_id = None; of_match = OF.Of_match.any })

(* Every driver-side file-system write goes through here: failures
   used to vanish in [ignore]; now they land in the shared
   [driver.fs_errors] counter (and the log) so a filled-up or
   misbehaving tree is visible instead of silent. *)
let bb_now t = Telemetry.Tracer.now (Telemetry.tracer t.telemetry)

let bb_who t = match t.switch_name with Some n -> n | None -> protocol t

let fs_checked t ~what = function
  | Ok _ -> ()
  | Error e ->
    Telemetry.Registry.incr t.m_fs_errors;
    Telemetry.Blackbox.fault
      (Telemetry.blackbox t.telemetry)
      ~at:(bb_now t) ~who:(bb_who t)
      ~what:(Printf.sprintf "fs write failed (%s): %s" what
               (Vfs.Errno.message e));
    Logs.warn (fun m ->
        m "driver[%s]: fs write failed (%s): %s" (protocol t) what
          (Vfs.Errno.message e))

(* Every control-channel transition lands in the flight recorder —
   the status history is exactly what a takeover post-mortem reads. *)
let set_status t status =
  if t.status <> status then begin
    let prev = t.status in
    t.status <- status;
    Telemetry.Blackbox.status
      (Telemetry.blackbox t.telemetry)
      ~at:(bb_now t) ~who:(bb_who t)
      ~from_:(Driver_intf.status_to_string prev)
      ~to_:(Driver_intf.status_to_string status);
    match t.switch_name with
    | Some name ->
      fs_checked t ~what:"switch status"
        (Y.Yanc_fs.set_switch_status t.yfs ~switch:name
           (Driver_intf.status_to_string status))
    | None -> ()
  end

let idx_add t id flow_name =
  let others =
    match Id_tbl.find_opt t.by_match id with
    | Some names -> List.filter (fun n -> not (String.equal n flow_name)) names
    | None -> []
  in
  Id_tbl.replace t.by_match id (flow_name :: others)

let idx_remove t id flow_name =
  match Id_tbl.find_opt t.by_match id with
  | None -> ()
  | Some names -> (
    match List.filter (fun n -> not (String.equal n flow_name)) names with
    | [] -> Id_tbl.remove t.by_match id
    | rest -> Id_tbl.replace t.by_match id rest)

(* The name whose hardware entry [id] currently is (or should be). *)
let claimant t id =
  match Id_tbl.find_opt t.by_match id with
  | Some (name :: _) -> Some name
  | Some [] | None -> None

let cache_set t flow_name ~ino (flow : Y.Flowdir.t) =
  (match Hashtbl.find_opt t.cache flow_name with
  | Some { flow = old; _ } ->
    idx_remove t (old.of_match, old.priority) flow_name
  | None -> ());
  Hashtbl.replace t.cache flow_name { flow; ino };
  idx_add t (flow.of_match, flow.priority) flow_name

let cache_remove t flow_name =
  match Hashtbl.find_opt t.cache flow_name with
  | None -> ()
  | Some { flow; _ } ->
    Hashtbl.remove t.cache flow_name;
    idx_remove t (flow.of_match, flow.priority) flow_name

let send_handshake t =
  OF.Framing.reset t.framing;
  t.seen_generation <- Netsim.Control_channel.generation t.endpoint;
  send t Msg.Hello;
  send t Msg.Features_request;
  if t.handshakes > 0 then begin
    t.c_retries <- t.c_retries + 1;
    Telemetry.Registry.incr t.m_retries
  end;
  t.handshakes <- t.handshakes + 1

let create ?wake ?(tuning = Driver_intf.default_tuning) ?(seed = 0x5EED)
    ~dialect ~yfs ~endpoint () =
  let telemetry = Y.Yanc_fs.telemetry yfs in
  let reg = Telemetry.registry telemetry in
  let prng = Netsim.Prng.create ~seed in
  let t =
    { yfs; telemetry; endpoint;
      framing = OF.Framing.create ();
      notifier = Fsnotify.Notifier.create (Y.Yanc_fs.fs yfs);
      dialect; tuning;
      backoff =
        Backoff.create ~base:tuning.Driver_intf.backoff_base
          ~cap:tuning.Driver_intf.backoff_cap
          ~jitter:tuning.Driver_intf.backoff_jitter ~prng ();
      next_xid = 1l; switch_name = None; connected = false;
      commits = Commit_queue.create ();
      ports_dirty = false; spool_dirty = false;
      last_stats = 0.;
      eventdir_subs = false; steps = 0; subs_checked_step = -1;
      status = Driver_intf.Handshaking; last_rx = neg_infinity;
      next_keepalive = neg_infinity; echo_outstanding = None;
      seen_generation = Netsim.Control_channel.generation endpoint;
      next_attempt = neg_infinity; episode_retries = 0; handshakes = 0;
      resyncing = false; resync_sent = neg_infinity; handshakes_done = 0;
      c_disconnects = 0; c_retries = 0; c_resyncs = 0;
      c_resync_installs = 0; c_resync_deletes = 0; c_keepalives = 0;
      m_disconnects = Telemetry.Registry.counter reg "driver.disconnects";
      m_retries = Telemetry.Registry.counter reg "driver.retries";
      m_resyncs = Telemetry.Registry.counter reg "driver.resyncs";
      m_resync_installs =
        Telemetry.Registry.counter reg "driver.resync_installs";
      m_resync_deletes =
        Telemetry.Registry.counter reg "driver.resync_deletes";
      m_keepalives = Telemetry.Registry.counter reg "driver.keepalives_sent";
      m_fs_errors = Telemetry.Registry.counter reg "driver.fs_errors";
      m_commit_batches = Telemetry.Registry.counter reg "driver.commit.batches";
      m_commit_keys = Telemetry.Registry.counter reg "driver.commit.keys";
      m_commit_coalesced =
        Telemetry.Registry.counter reg "driver.commit.coalesced";
      m_commit_adds = Telemetry.Registry.counter reg "driver.commit.adds";
      m_commit_deletes = Telemetry.Registry.counter reg "driver.commit.deletes";
      m_commit_sweeps = Telemetry.Registry.counter reg "driver.commit.sweeps";
      m_commit_latency =
        Telemetry.Registry.histogram reg "driver.commit.latency";
      cache = Hashtbl.create 64;
      by_match = Id_tbl.create 64;
      pushed_admin = Hashtbl.create 8 }
  in
  (* File-system activity (app flow writes, spool entries, admin port
     flips) must un-park a sleeping driver just like channel bytes
     do. *)
  (match wake with
  | Some f -> Fsnotify.Notifier.set_wakeup t.notifier f
  | None -> ());
  send_handshake t;
  t

let switch_name t = t.switch_name

let connected t = t.connected

let status t = t.status

let link_counters t =
  { Driver_intf.disconnects = t.c_disconnects; retries = t.c_retries;
    resyncs = t.c_resyncs; resync_installs = t.c_resync_installs;
    resync_deletes = t.c_resync_deletes; keepalives_sent = t.c_keepalives }

let root t = Y.Yanc_fs.root t.yfs

let fs t = Y.Yanc_fs.fs t.yfs

let cred = Vfs.Cred.root

(* --- switch-to-controller events ---------------------------------------- *)

let set_ports t ~name ports =
  List.iter
    (fun p ->
      fs_checked t ~what:"port dir" (Y.Yanc_fs.set_port t.yfs ~cred ~switch:name p))
    ports

let on_features t ~now (f : Msg.features) =
  let name = Y.Yanc_fs.switch_name_of_dpid f.datapath_id in
  t.switch_name <- Some name;
  fs_checked t ~what:"switch dir"
    (Y.Yanc_fs.add_switch t.yfs ~cred ~name ~dpid:f.datapath_id ~protocol:(protocol t)
       ~n_buffers:f.n_buffers ~n_tables:f.n_tables
       ~capabilities:(OF.Of_types.Capabilities.to_list f.capabilities)
       ~actions:
         [ "output"; "set_dl_src"; "set_dl_dst"; "set_vlan"; "set_vlan_pcp";
           "strip_vlan"; "set_nw_src"; "set_nw_dst"; "set_nw_tos";
           "set_tp_src"; "set_tp_dst" ]);
  (* Ports come once: in the features reply, or (when the dialect
     reports them separately) in answer to one port-desc request. *)
  (match f.ports with
  | Some ports -> set_ports t ~name ports
  | None -> send t (Msg.Stats_request Msg.Port_desc_req));
  if t.handshakes_done = 0 then begin
    (* Watch the parts of the switch directory the driver reacts to.
       Watches survive reconnects; adding them again on every
       re-handshake would double-deliver each event. Below a flow
       directory only the commit file matters: the notifier drops the
       field writes, counter and error writebacks before they are
       queued. *)
    let watch ?leaves path =
      ignore
        (Fsnotify.Notifier.add_watch ~recursive:true ?leaves t.notifier path
           Fsnotify.Notifier.all)
    in
    watch ~leaves:[ Y.Flowdir.commit_file ] (Y.Layout.flows_dir ~root:(root t) name);
    watch (Y.Layout.ports_dir ~root:(root t) name);
    watch (Y.Layout.packet_out_dir ~root:(root t) name);
    Fsnotify.Notifier.register_metrics t.notifier
      ~prefix:(Printf.sprintf "driver.%s" name)
      (Telemetry.registry t.telemetry);
    Telemetry.Registry.gauge
      (Telemetry.registry t.telemetry)
      (Printf.sprintf "driver.%s.status" name)
      (fun () ->
        match t.status with
        | Driver_intf.Handshaking -> 0.
        | Driver_intf.Connected -> 1.
        | Driver_intf.Degraded -> 2.
        | Driver_intf.Reconnecting -> 3.
        | Driver_intf.Dead -> 4.);
    Telemetry.Registry.gauge
      (Telemetry.registry t.telemetry)
      (Printf.sprintf "driver.%s.commit.pending" name)
      (fun () -> float_of_int (Commit_queue.pending t.commits))
  end;
  t.connected <- true;
  set_status t Driver_intf.Connected;
  Backoff.reset t.backoff;
  t.episode_retries <- 0;
  t.next_attempt <- neg_infinity;
  t.next_keepalive <- neg_infinity;
  t.echo_outstanding <- None;
  t.last_rx <- now;
  t.handshakes_done <- t.handshakes_done + 1;
  (* The switch may hold rules this driver never sent (a previous
     driver's, or ours from before an outage: fail secure keeps the
     table), and the file system may have changed meanwhile. Ask the
     switch what it holds; the reply runs the reconcile, and commits
     wait for it. It also stands in for this period's stats poll. *)
  t.resyncing <- true;
  t.resync_sent <- now;
  t.last_stats <- now;
  send t flow_stats_request;
  t.ports_dirty <- true;
  t.spool_dirty <- true

(* --- file system to switch ------------------------------------------------ *)

(* Resolve one dirty flow key against the commit cache, appending the
   required hardware work to [deletes]/[adds]. Pure bookkeeping plus
   directory reads; the wire traffic happens in [send_plan], which
   orders every delete before any add — a renamed flow directory is a
   deletion plus an addition of the same rule, and deleting by match
   after the re-add would wipe the new entry. *)
(* Retire [flow_name]'s claim on hardware identity [id] and schedule
   the strict delete. Whether another file still claims the identity
   is decided in [send_plan], after the whole batch has resolved. *)
let delete_entry t ~deletes flow_name id =
  idx_remove t id flow_name;
  deletes := id :: !deletes

let resolve_key t ~switch ~deletes ~adds flow_name =
  match Y.Yanc_fs.open_flow t.yfs ~cred ~switch flow_name with
  | Error _ -> (
    (* Directory gone: delete the hardware entry we committed for it
       (an uncommitted or unknown name needs nothing). *)
    match Hashtbl.find_opt t.cache flow_name with
    | Some { flow; _ } ->
      cache_remove t flow_name;
      delete_entry t ~deletes flow_name (flow.of_match, flow.priority)
    | None -> ())
  | Ok d -> (
    match Y.Flowdir.read_version (fs t) ~cred d with
    | Ok None -> () (* not committed yet *)
    | Error _ as e -> fs_checked t ~what:"flow version" e
    | Ok (Some version) ->
      let cached = Hashtbl.find_opt t.cache flow_name in
      let stale =
        match cached with
        | Some { flow; ino } ->
          Y.Flowdir.is_news ~version ~ino:(Vfs.Fs.dir_ino d)
            ~seen_version:flow.version ~seen_ino:ino
        | None -> true
      in
      if stale then (
        let verdict, report = Y.Flowdir.read_reporting (fs t) ~cred d Result.ok in
        fs_checked t ~what:"flow error file" report;
        match verdict with
        | Error _ -> ()
        | Ok flow ->
          (* Rule identity changed: the old hardware entry must go. *)
          (match cached with
          | Some { flow = old; _ }
            when not
                   (OF.Of_match.equal old.of_match flow.of_match
                   && old.priority = flow.priority) ->
            delete_entry t ~deletes flow_name (old.of_match, old.priority)
          | Some _ | None -> ());
          adds := (flow_name, d, flow) :: !adds))

(* The one exit for flow adds. [ino] is the directory's inode for the
   cache. *)
let install t ~switch flow_name ~ino (flow : Y.Flowdir.t) =
  let tracer = Telemetry.tracer t.telemetry in
  ignore
    (Telemetry.Tracer.resume tracer
       (Y.Layout.trace_key_flow ~switch flow_name));
  let add_xid = fresh_xid t in
  Telemetry.Tracer.span tracer ~stage:"driver.flow_mod"
    (fun () -> send t ~xid:add_xid (flow_add flow));
  (* The agent resumes by xid when it installs the entry. *)
  Telemetry.Tracer.stamp tracer (Netsim.Of_agent.trace_key_xid add_xid);
  Telemetry.Tracer.clear tracer;
  cache_set t flow_name ~ino { flow with buffer_id = None }

(* Send one resolved plan, every delete before any add, and return the
   (deletes, adds) it sent. Each add was read through its directory
   handle [d], which spends the one-shot buffer reference; with
   [~buffers:false] the reference is dropped rather than sent — it
   names a packet in a buffer pool that did not survive the outage. *)
let send_plan ?(buffers = true) t ~switch ~deletes ~adds =
  let deleted = Id_tbl.create 8 in
  List.iter
    (fun (of_match, priority) ->
      if not (Id_tbl.mem deleted (of_match, priority)) then begin
        Id_tbl.replace deleted (of_match, priority) ();
        send t (flow_delete_strict ~priority of_match)
      end)
    (List.rev !deletes);
  (* An identity we just deleted may still be claimed by a surviving
     flow file (nothing stops two directories committing the same
     match and priority). Reinstall the survivor's config before the
     regular adds, so a newer config installed for the same identity
     in this very batch still wins. *)
  let survivors =
    Id_tbl.fold
      (fun id () n ->
        match claimant t id with
        | None -> n
        | Some survivor -> (
          match Hashtbl.find_opt t.cache survivor with
          | Some { flow; ino } ->
            install t ~switch survivor ~ino flow;
            n + 1
          | None -> n))
      deleted 0
  in
  List.iter
    (fun (flow_name, d, (flow : Y.Flowdir.t)) ->
      install t ~switch flow_name ~ino:(Vfs.Fs.dir_ino d)
        (if buffers then flow else { flow with buffer_id = None });
      if flow.buffer_id <> None then
        fs_checked t ~what:"buffer_id unlink"
          (Y.Flowdir.clear_buffer_id (fs t) ~cred d))
    (List.rev !adds);
  (Id_tbl.length deleted, survivors + List.length !adds)

let count_commits t (deletes, adds) =
  Telemetry.Registry.add t.m_commit_deletes deletes;
  Telemetry.Registry.add t.m_commit_adds adds

(* The one O(flows) routine: resolve every listed flow directory and
   every cached name against the cache — a cached name whose directory
   is gone resolves to its delete. Visiting every flow, it subsumes
   the queued commits. *)
let sweep t ~switch ~deletes ~adds =
  Telemetry.Registry.incr t.m_commit_sweeps;
  Hashtbl.fold
    (fun flow_name _ names -> Y.Yanc_fs.Name_set.add flow_name names)
    t.cache
    (Y.Yanc_fs.flow_name_set t.yfs ~cred switch)
  |> Y.Yanc_fs.Name_set.iter (resolve_key t ~switch ~deletes ~adds);
  Commit_queue.clear t.commits

(* Notify overflow: file-system events were lost, but the hardware is
   what the cache says, so the sweep runs against the cache. *)
let reconcile_flows t =
  match t.switch_name with
  | None -> ()
  | Some name ->
    let deletes = ref [] and adds = ref [] in
    sweep t ~switch:name ~deletes ~adds;
    count_commits t (send_plan t ~switch:name ~deletes ~adds)

(* Bounded flush: one batch of dirty keys per step, so a flow-mod
   storm spreads over successive steps instead of monopolizing one. *)
let commit_batch = 1024

let flush_commits t =
  match t.switch_name with
  | None -> ()
  | Some name ->
    if not (Commit_queue.is_empty t.commits) then begin
      let t0 = Unix.gettimeofday () in
      let batch = Commit_queue.take ~max:commit_batch t.commits in
      let deletes = ref [] and adds = ref [] in
      List.iter (resolve_key t ~switch:name ~deletes ~adds) batch;
      count_commits t (send_plan t ~switch:name ~deletes ~adds);
      Telemetry.Registry.incr t.m_commit_batches;
      Telemetry.Registry.add t.m_commit_keys (List.length batch);
      Telemetry.Registry.observe t.m_commit_latency
        (Unix.gettimeofday () -. t0)
    end

let reconcile_ports t =
  match t.switch_name with
  | None -> ()
  | Some name ->
    List.iter
      (fun port_no ->
        match Y.Yanc_fs.read_port t.yfs ~cred ~switch:name port_no with
        | Error _ -> ()
        | Ok info ->
          let pushed = Hashtbl.find_opt t.pushed_admin port_no in
          if pushed <> Some info.admin_down then begin
            Hashtbl.replace t.pushed_admin port_no info.admin_down;
            send t (Msg.Port_mod { port_no; admin_down = info.admin_down })
          end)
      (Y.Yanc_fs.port_numbers t.yfs ~cred name)

let drain_spool t =
  match t.switch_name with
  | None -> ()
  | Some name -> (
    match
      Y.Outdir.consume (fs t) ~cred ~root:(root t) ~switch:name
        ~on_error:(fun e -> fs_checked t ~what:"packet-out request" (Error e))
    with
    | Error Vfs.Errno.ENOENT -> () (* the switch directory is gone *)
    | Error _ as e -> fs_checked t ~what:"packet-out spool" e
    | Ok reqs ->
      List.iter
        (fun (req : Y.Outdir.request) ->
          send t
            (Msg.Packet_out
               { buffer_id = req.buffer_id; in_port = req.in_port;
                 actions = req.actions; data = req.data }))
        reqs)

(* Bounded drain: a flow-mod storm is spread over successive steps
   instead of monopolizing one; dirty state persists, and events
   left queued re-trigger classification next step. *)
let event_batch = 4096

let classify_fs_events t =
  match t.switch_name with
  | None -> ignore (Fsnotify.Notifier.read_events ~max:event_batch t.notifier)
  | Some name ->
    let flows = Y.Layout.flows_dir ~root:(root t) name in
    let ports = Y.Layout.ports_dir ~root:(root t) name in
    let spool = Y.Layout.packet_out_dir ~root:(root t) name in
    List.iter
      (fun (ev : Fsnotify.Event.t) ->
        (* A queue overflow means events were lost: rescan everything,
           as inotify consumers must on IN_Q_OVERFLOW. *)
        if ev.kind = Fsnotify.Event.Overflow then begin
          Commit_queue.mark_sweep t.commits;
          t.ports_dirty <- true;
          t.spool_dirty <- true
        end
        else
          match Vfs.Path.strip_prefix ~prefix:flows ev.path with
          | Some rest -> (
            (* Events carry the changed object's full path, so the
               first component under flows/ names the dirty flow. *)
            match Vfs.Path.components rest with
            | flow :: _ ->
              if not (Commit_queue.mark t.commits flow) then
                Telemetry.Registry.incr t.m_commit_coalesced
            | [] ->
              (* The flows directory itself changed (created, moved):
                 no per-key trail to follow — sweep. *)
              Commit_queue.mark_sweep t.commits)
          | None ->
            if Vfs.Path.is_prefix spool ev.path then t.spool_dirty <- true
            else if Vfs.Path.is_prefix ports ev.path then begin
              match Vfs.Path.basename ev.path with
              | Some base when base = Y.Schema.config_port_down ->
                t.ports_dirty <- true
              | _ -> ()
            end)
      (Fsnotify.Notifier.read_events ~max:event_batch t.notifier)

(* --- switch-to-controller messages ---------------------------------------- *)

(* Reconcile the switch's own report (the flow-stats reply that every
   handshake asks for) through the commit path. What the switch lost
   or holds stale, the cache forgets, so the sweep sees it as news and
   re-adds it; whatever the switch holds that no committed flow claims
   is a stray and is strictly deleted, so a same-match rule at another
   priority survives. After a re-handshake this is a resync and is
   counted as one. *)
let resync t ~name (stats : OF.Of_types.Flow_stats.t list) =
  t.resyncing <- false;
  let on_switch = Id_tbl.create 64 in
  List.iter
    (fun (s : OF.Of_types.Flow_stats.t) ->
      Id_tbl.replace on_switch (s.of_match, s.priority) s)
    stats;
  (* The switch holds a cached flow when it reports the flow's identity
     and, if the rule there is this flow's (its claimant), this flow's
     config: a lost modify leaves old actions under the same identity. *)
  let holds flow_name (f : Y.Flowdir.t) =
    let id = (f.of_match, f.priority) in
    match Id_tbl.find_opt on_switch id with
    | None -> false
    | Some (s : OF.Of_types.Flow_stats.t) ->
      claimant t id <> Some flow_name
      || (s.actions, s.cookie, s.idle_timeout, s.hard_timeout)
         = (f.actions, f.cookie, f.idle_timeout, f.hard_timeout)
  in
  Hashtbl.fold
    (fun flow_name { flow; _ } acc ->
      if holds flow_name flow then acc else flow_name :: acc)
    t.cache []
  |> List.iter (cache_remove t);
  let deletes = ref [] and adds = ref [] in
  sweep t ~switch:name ~deletes ~adds;
  (* An add claims its identity only once installed: strike the adds
     off, and what stays unclaimed is a stray. *)
  List.iter
    (fun (_, _, (f : Y.Flowdir.t)) ->
      Id_tbl.remove on_switch (f.of_match, f.priority))
    !adds;
  Id_tbl.iter
    (fun id _ -> if claimant t id = None then deletes := id :: !deletes)
    on_switch;
  let ((strays, installs) as sent) =
    send_plan ~buffers:false t ~switch:name ~deletes ~adds
  in
  if t.handshakes_done > 1 then begin
    t.c_resyncs <- t.c_resyncs + 1;
    t.c_resync_installs <- t.c_resync_installs + installs;
    t.c_resync_deletes <- t.c_resync_deletes + strays;
    Telemetry.Registry.incr t.m_resyncs;
    Telemetry.Registry.add t.m_resync_installs installs;
    Telemetry.Registry.add t.m_resync_deletes strays
  end
  else count_commits t sent

let on_message t ~now ~xid (msg : Msg.t) =
  match msg with
  | Msg.Error_msg _ ->
    Logs.warn (fun m -> m "driver[%s]: switch %a" (protocol t) Msg.pp msg)
  | Msg.Echo_request data -> send t ~xid (Msg.Echo_reply data)
  | Msg.Echo_reply _ ->
    (* Any reply proves the peer is processing our requests. *)
    t.echo_outstanding <- None
  | Msg.Features_reply f -> on_features t ~now f
  | Msg.Stats_reply (Msg.Port_desc_rep ports) -> (
    match t.switch_name with
    | None -> ()
    | Some name -> set_ports t ~name ports)
  | Msg.Packet_in { buffer_id; total_len; in_port; reason; data } -> (
    match t.switch_name with
    | None -> ()
    | Some name ->
      (* The packet-in is where a request enters the controller: mint
         its trace here, publish under a span, and let consumers pick
         the trace up by sequence number. The pooled ring is always
         fed (it is free when nobody subscribed); the per-event file
         directories are only written when some application actually
         reads them — rechecked at most once a step while negative,
         so a storm with ring-only consumers never pays the eventdir
         fan-out, and a late [Eventdir.subscribe] is noticed on the
         next step. *)
      if (not t.eventdir_subs) && t.subs_checked_step <> t.steps then begin
        t.subs_checked_step <- t.steps;
        t.eventdir_subs <-
          Y.Eventdir.subscribers (fs t) ~root:(root t) ~switch:name <> []
      end;
      let tracer = Telemetry.tracer t.telemetry in
      ignore (Telemetry.Tracer.fresh tracer);
      Telemetry.Tracer.span tracer ~stage:"driver.packet_in" (fun () ->
          ignore
            (Y.Pktin.publish (Y.Yanc_fs.pktin t.yfs) ~switch:name ~in_port
               ~reason ~buffer_id ~total_len ~data ~at:now);
          if t.eventdir_subs then
            match
              Y.Eventdir.publish ~telemetry:t.telemetry t.yfs ~cred ~switch:name
                ~in_port ~reason ~buffer_id ~total_len ~data
            with
            | Ok 0 ->
              (* All subscribers gone: stop paying for the readdir until
                 someone shows up again. *)
              t.eventdir_subs <- false
            | r -> fs_checked t ~what:"packet-in event" r);
      Telemetry.Tracer.clear tracer)
  | Msg.Port_status (reason, port) -> (
    match t.switch_name with
    | None -> ()
    | Some name -> (
      match reason with
      | OF.Of_types.Port_delete ->
        fs_checked t ~what:"port removal"
          (Y.Yanc_fs.remove_port t.yfs ~switch:name port.port_no)
      | OF.Of_types.Port_add | OF.Of_types.Port_modify ->
        fs_checked t ~what:"port dir"
          (Y.Yanc_fs.set_port t.yfs ~cred ~switch:name port)))
  | Msg.Flow_removed { of_match; priority; _ } -> (
    match t.switch_name with
    | None -> ()
    | Some name -> (
      match claimant t (of_match, priority) with
      | None -> ()
      | Some flow_name ->
        cache_remove t flow_name;
        fs_checked t ~what:"flow dir removal"
          (Y.Yanc_fs.delete_flow t.yfs ~cred ~switch:name flow_name)))
  | Msg.Stats_reply (Msg.Flow_stats_rep entries) -> (
    match t.switch_name with
    | None -> ()
    | Some name ->
      let stats = List.map snd entries in
      if t.resyncing then resync t ~name stats;
      (* One handle on flows/ for the whole reply, opened on first use. *)
      let flows = lazy (Y.Yanc_fs.open_flows t.yfs ~cred name) in
      List.iter
        (fun (s : OF.Of_types.Flow_stats.t) ->
          match claimant t (s.of_match, s.priority) with
          | None -> ()
          | Some flow_name ->
            fs_checked t ~what:"flow counters"
              (Result.bind (Lazy.force flows) (fun d ->
                   Y.Flowdir.write_counters ~flow:flow_name (fs t) ~cred d
                     ~packets:s.packets ~bytes:s.bytes ~duration_s:s.duration_s)))
        stats)
  | Msg.Stats_reply (Msg.Port_stats_rep stats) -> (
    match t.switch_name with
    | None -> ()
    | Some name ->
      List.iter
        (fun (s : OF.Of_types.Port_stats.t) ->
          fs_checked t ~what:"port counters"
            (Y.Yanc_fs.write_port_counters t.yfs ~switch:name
               ~port:s.port_no s))
        stats)
  | Msg.Hello | Msg.Features_request | Msg.Flow_mod _ | Msg.Packet_out _
  | Msg.Port_mod _ | Msg.Stats_request _ | Msg.Barrier_request
  | Msg.Barrier_reply -> ()

(* The survival half of the state machine: handshake retries with
   backoff while Handshaking/Reconnecting, echo keepalives and the
   liveness verdict while Connected/Degraded. Runs once per step,
   after received traffic has been processed. *)
let liveness t ~now =
  match t.status with
  | Driver_intf.Dead -> ()
  | Driver_intf.Handshaking | Driver_intf.Reconnecting ->
    if t.next_attempt = neg_infinity then
      t.next_attempt <- now +. Backoff.next t.backoff
    else if now >= t.next_attempt then
      if t.episode_retries >= t.tuning.Driver_intf.max_retries then
        set_status t Driver_intf.Dead
      else begin
        t.episode_retries <- t.episode_retries + 1;
        (* Bounce the transport even when it still looks connected: a
           soft failure may have desynchronized the peer's framer, and
           only a generation bump makes both sides reset. *)
        if Netsim.Control_channel.connected t.endpoint then
          Netsim.Control_channel.disconnect t.endpoint;
        let up = Netsim.Control_channel.reconnect t.endpoint in
        if up then send_handshake t
        else begin
          (* The transport refused us; the attempt still consumed a
             slot in the schedule. *)
          t.c_retries <- t.c_retries + 1;
          Telemetry.Registry.incr t.m_retries
        end;
        t.next_attempt <- now +. Backoff.next t.backoff
      end
  | Driver_intf.Connected | Driver_intf.Degraded ->
    if t.last_rx = neg_infinity then t.last_rx <- now;
    (* The peer-is-gone verdict. A hard transport loss shows up
       immediately; a silent one only through the xid-tracked echo:
       the outstanding probe's age can grow past the timeout only if
       replies have genuinely stopped, so coarse simulation ticks
       (where [now] jumps by more than the timeout between steps)
       never produce a false positive the way a last-byte-seen clock
       would. *)
    let declare_gone () =
      t.connected <- false;
      t.c_disconnects <- t.c_disconnects + 1;
      Telemetry.Registry.incr t.m_disconnects;
      Telemetry.Blackbox.fault
        (Telemetry.blackbox t.telemetry)
        ~at:(bb_now t) ~who:(bb_who t) ~what:"peer declared gone";
      t.echo_outstanding <- None;
      t.resyncing <- false;
      t.next_keepalive <- neg_infinity;
      Backoff.reset t.backoff;
      t.episode_retries <- 0;
      t.next_attempt <- now;
      set_status t Driver_intf.Reconnecting
    in
    if not (Netsim.Control_channel.connected t.endpoint) then declare_gone ()
    else begin
      (if t.resyncing
          && now -. t.resync_sent > t.tuning.Driver_intf.liveness_timeout
       then begin
         (* The resync stats request (or its reply) was lost. *)
         t.resync_sent <- now;
         t.c_retries <- t.c_retries + 1;
         Telemetry.Registry.incr t.m_retries;
         send t flow_stats_request
       end);
      let iv = t.tuning.Driver_intf.keepalive_interval in
      if iv > 0. then begin
        if t.next_keepalive = neg_infinity then t.next_keepalive <- now +. iv
        else if now >= t.next_keepalive then begin
          let x = fresh_xid t in
          send t ~xid:x (Msg.Echo_request "yanc-ka");
          if t.echo_outstanding = None then
            t.echo_outstanding <- Some (x, now);
          t.c_keepalives <- t.c_keepalives + 1;
          Telemetry.Registry.incr t.m_keepalives;
          t.next_keepalive <- now +. iv
        end;
        match t.echo_outstanding with
        | Some (_, sent_at)
          when now -. sent_at > t.tuning.Driver_intf.liveness_timeout ->
          declare_gone ()
        | Some (_, sent_at) when now -. sent_at > iv ->
          set_status t Driver_intf.Degraded
        | Some _ | None -> ()
      end
    end

let step t ~now =
  t.steps <- t.steps + 1;
  Netsim.Control_channel.poll t.endpoint;
  let gen = Netsim.Control_channel.generation t.endpoint in
  if gen <> t.seen_generation then begin
    (* The transport was torn down and reconnected underneath us:
       whatever partial frame we held belongs to the old byte
       stream. *)
    t.seen_generation <- gen;
    OF.Framing.reset t.framing
  end;
  let chunks = Netsim.Control_channel.recv_all t.endpoint in
  if chunks <> [] then begin
    t.last_rx <- now;
    if t.status = Driver_intf.Degraded then set_status t Driver_intf.Connected;
    if t.status = Driver_intf.Dead then begin
      (* A link written off as dead that speaks again has earned a
         fresh reconnect episode. *)
      Backoff.reset t.backoff;
      t.episode_retries <- 0;
      t.next_attempt <- now;
      set_status t Driver_intf.Reconnecting
    end
  end;
  List.iter (OF.Framing.push t.framing) chunks;
  List.iter
    (fun raw ->
      match OF.Dialect.decode t.dialect raw with
      | Ok (xid, msg) -> on_message t ~now ~xid msg
      | Error e -> Logs.warn (fun m -> m "driver[%s]: %s" (protocol t) e.data))
    (OF.Framing.pop_all t.framing);
  liveness t ~now;
  if t.connected then begin
    classify_fs_events t;
    (* While a resync is outstanding, commits wait: its sweep subsumes
       them. *)
    if t.resyncing then ()
    else if Commit_queue.take_sweep t.commits then reconcile_flows t
    else flush_commits t;
    if t.ports_dirty then begin
      t.ports_dirty <- false;
      reconcile_ports t
    end;
    if t.spool_dirty then begin
      t.spool_dirty <- false;
      drain_spool t
    end;
    let iv = t.tuning.Driver_intf.stats_interval in
    if iv > 0. && now -. t.last_stats >= iv then begin
      t.last_stats <- now;
      send t flow_stats_request;
      send t (Msg.Stats_request (Msg.Port_stats_req None))
    end
  end

let detach t = Fsnotify.Notifier.close t.notifier

(* Work already queued that the next step would act on — the "step me
   now regardless of timers" predicate. *)
let pending t =
  Fsnotify.Notifier.pending t.notifier > 0
  || t.connected
     && ((not t.resyncing)
         && ((not (Commit_queue.is_empty t.commits))
            || Commit_queue.sweep_pending t.commits)
        || t.ports_dirty || t.spool_dirty)

(* The earliest sim time at which [step] would do something on its
   own: mirrors the timer arms of [liveness] plus the stats pacer.
   Sentinel [neg_infinity] timers are armed on the next step, so they
   read as due now. Spurious earliness is harmless (one no-op step);
   lateness would stall the state machine, so every timed arm above
   must be represented here. *)
let next_due t ~now =
  match t.status with
  | Driver_intf.Dead ->
    (* Terminal until bytes arrive — and bytes wake us via the
       channel, not a timer. *)
    infinity
  | Driver_intf.Handshaking | Driver_intf.Reconnecting ->
    if t.next_attempt = neg_infinity then now else t.next_attempt
  | Driver_intf.Connected | Driver_intf.Degraded ->
    let due = ref infinity in
    let arm at = if at < !due then due := at in
    let iv = t.tuning.Driver_intf.keepalive_interval in
    if iv > 0. then begin
      arm (if t.next_keepalive = neg_infinity then now else t.next_keepalive);
      match t.echo_outstanding with
      | Some (_, sent_at) ->
        (* Degraded verdict, then the peer-is-gone verdict. *)
        arm (sent_at +. iv);
        arm (sent_at +. t.tuning.Driver_intf.liveness_timeout)
      | None -> ()
    end;
    if t.resyncing then
      arm (t.resync_sent +. t.tuning.Driver_intf.liveness_timeout);
    let stats_iv = t.tuning.Driver_intf.stats_interval in
    if stats_iv > 0. then arm (t.last_stats +. stats_iv);
    !due
