module Y = Yancfs
module Fs = Vfs.Fs
module Path = Vfs.Path
module Reg = Telemetry.Registry

let flow_prefix = "pol_"

let is_pol name =
  String.length name > 4 && String.sub name 0 4 = flow_prefix

module SS = Set.Make (String)

type t = {
  yfs : Y.Yanc_fs.t;
  fs : Fs.t;
  cred : Vfs.Cred.t;
  dir : Path.t;
  errors_dir : Path.t;
  notifier : Fsnotify.Notifier.t;
  wd_dir : int;
  wd_switches : int;
  tracer : Telemetry.Tracer.t;
  (* per-file parse results; absent = file gone *)
  parsed : (string, (Policy.Ir.t, string) result) Hashtbl.t;
  (* per-switch installed pol_* flows: name -> priority *)
  sw_state : (string, (string, int) Hashtbl.t) Hashtbl.t;
  mutable dirty_all : bool;
  mutable fresh_switches : SS.t;
  mutable desired : Policy.Compile.flow_rule list;
  mutable desired_render : string;
  mutable last_error : string option;
  m_recompiles : Reg.counter;
  m_compile_errors : Reg.counter;
  m_written : Reg.counter;
  m_deleted : Reg.counter;
  m_fs_errors : Reg.counter;
  m_latency : Reg.histogram;
}

let composed_error_name = "_policy"

(* --- error files ---------------------------------------------------------- *)

(* Failed writes are counted in policy.fs_errors. *)
let fs_failed errors what msg = App_intf.fs_failed errors "policyd" what msg

let checked errors what r = App_intf.checked errors "policyd" what r

let set_error t name msg =
  let path = Path.child t.errors_dir name in
  let what = Path.to_string path in
  match msg with
  | Some e -> checked t.m_fs_errors what (Fs.write_file t.fs ~cred:t.cred path e)
  | None -> (
      (* clearing an error that was never filed is not a failure *)
      match Fs.unlink t.fs ~cred:t.cred path with
      | Error Vfs.Errno.ENOENT -> ()
      | r -> checked t.m_fs_errors what r)

(* --- switch adoption ------------------------------------------------------ *)

let adopt_switch t switch =
  match Hashtbl.find_opt t.sw_state switch with
  | Some state -> state
  | None ->
      let state = Hashtbl.create 16 in
      Y.Yanc_fs.Name_set.iter
        (fun name ->
          if is_pol name then
            match Y.Yanc_fs.read_flow t.yfs ~cred:t.cred ~switch name with
            | Ok f -> Hashtbl.replace state name f.Y.Flowdir.priority
            | Error _ -> ())
        (Y.Yanc_fs.flow_name_set t.yfs ~cred:t.cred switch);
      Hashtbl.replace t.sw_state switch state;
      state

let create ?(dir = Y.Layout.policy_root) ~cred yfs =
  let fs = Y.Yanc_fs.fs yfs in
  let errors_dir = Path.child dir ".errors" in
  let telemetry = Y.Yanc_fs.telemetry yfs in
  let reg = Telemetry.registry telemetry in
  let m_fs_errors = Reg.counter reg "policy.fs_errors" in
  List.iter
    (fun d -> checked m_fs_errors (Path.to_string d) (Fs.mkdir_p fs ~cred d))
    [ dir; errors_dir ];
  let notifier = Fsnotify.Notifier.create fs in
  let wd_dir =
    Fsnotify.Notifier.add_watch notifier dir
      (Fsnotify.Notifier.mask
         Fsnotify.Event.
           [ Created; Modified; Moved_to; Deleted; Moved_from; Overflow ])
  in
  let wd_switches =
    Fsnotify.Notifier.add_watch notifier
      (Y.Layout.switches_dir ~root:(Y.Yanc_fs.root yfs))
      (Fsnotify.Notifier.mask Fsnotify.Event.[ Created; Deleted ])
  in
  let t =
    {
      yfs;
      fs;
      cred;
      dir;
      errors_dir;
      notifier;
      wd_dir;
      wd_switches;
      tracer = Telemetry.tracer telemetry;
      parsed = Hashtbl.create 8;
      sw_state = Hashtbl.create 8;
      dirty_all = true;
      fresh_switches = SS.empty;
      desired = [];
      desired_render = "";
      last_error = None;
      m_recompiles = Reg.counter reg "policy.recompiles";
      m_compile_errors = Reg.counter reg "policy.compile_errors";
      m_written = Reg.counter reg "policy.flows_written";
      m_deleted = Reg.counter reg "policy.flows_deleted";
      m_fs_errors;
      m_latency = Reg.histogram reg "policy.compile.latency";
    }
  in
  Reg.gauge reg "policy.files" (fun () ->
      float_of_int (Hashtbl.length t.parsed));
  Reg.gauge reg "policy.rules" (fun () -> float_of_int (List.length t.desired));
  List.iter (fun sw -> ignore (adopt_switch t sw)) (Y.Yanc_fs.switch_names yfs);
  t

(* --- parsing -------------------------------------------------------------- *)

let policy_file_names t =
  match Fs.readdir t.fs ~cred:t.cred t.dir with
  | Error _ -> []
  | Ok names ->
      List.filter (fun n -> String.length n > 0 && n.[0] <> '.') names

let reparse_one t name =
  let result =
    Telemetry.Tracer.span t.tracer ~stage:"policy.parse" (fun () ->
        match Fs.read_file t.fs ~cred:t.cred (Path.child t.dir name) with
        | Error _ -> None (* deleted (or a directory): forget it *)
        | Ok text -> Some (Policy.Syntax.parse text))
  in
  match result with
  | None ->
      Hashtbl.remove t.parsed name;
      set_error t name None
  | Some (Ok _ as ok) ->
      Hashtbl.replace t.parsed name ok;
      set_error t name None
  | Some (Error e as err) ->
      Hashtbl.replace t.parsed name err;
      Reg.incr t.m_compile_errors;
      set_error t name (Some e);
      Logs.warn (fun m -> m "policyd: %s: %s" name e)

let compose t =
  let irs =
    Hashtbl.fold
      (fun name result acc ->
        match result with Ok ir -> (name, ir) :: acc | Error _ -> acc)
      t.parsed []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd
  in
  match irs with
  | [] -> None
  | p :: rest -> Some (List.fold_left (fun acc q -> Policy.Ir.Par (acc, q)) p rest)

let recompile t =
  let t0 = Unix.gettimeofday () in
  let result =
    Telemetry.Tracer.span t.tracer ~stage:"policy.compile" (fun () ->
        match compose t with
        | None -> Ok []
        | Some p -> Policy.Compile.to_flows p)
  in
  Reg.observe t.m_latency (Unix.gettimeofday () -. t0);
  Reg.incr t.m_recompiles;
  match result with
  | Ok rules ->
      t.desired <- rules;
      t.desired_render <- Policy.Compile.render rules;
      t.last_error <- None;
      set_error t composed_error_name None;
      true
  | Error e ->
      (* the composed policy is bad: keep the last good rule set *)
      Reg.incr t.m_compile_errors;
      t.last_error <- Some e;
      set_error t composed_error_name (Some e);
      Logs.warn (fun m -> m "policyd: compile failed: %s" e);
      false

(* --- incremental install -------------------------------------------------- *)

(* The anchors of the stable diff: a longest common subsequence of the
   installed and desired name lists. Names are unique on both sides, so
   it is a longest increasing subsequence of the installed names'
   desired positions ([pos], -1 for a name no longer desired), found by
   patience sorting in O(n log n). Returns the anchors' indexes into
   [pos], in order. *)
let lis (pos : int array) : int list =
  let n = Array.length pos in
  (* tails.(k): index into pos of the smallest tail of an increasing
     run of length k + 1; pred.(i): the element before i in its run *)
  let tails = Array.make n 0 and pred = Array.make n (-1) in
  let len = ref 0 in
  for i = 0 to n - 1 do
    let p = pos.(i) in
    if p >= 0 then begin
      (* first k < len with pos.(tails.(k)) >= p *)
      let lo = ref 0 and hi = ref !len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if pos.(tails.(mid)) < p then lo := mid + 1 else hi := mid
      done;
      if !lo > 0 then pred.(i) <- tails.(!lo - 1);
      tails.(!lo) <- i;
      if !lo = !len then incr len
    end
  done;
  let rec walk i acc = if i < 0 then acc else walk pred.(i) (i :: acc) in
  if !len = 0 then [] else walk tails.(!len - 1) []

let index_names names =
  let idx = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace idx name i) names;
  idx

let position idx name = Option.value (Hashtbl.find_opt idx name) ~default:(-1)

let anchors_by idx old_names =
  List.map (fun i -> old_names.(i)) (lis (Array.map (position idx) old_names))

let anchors old_names new_names = anchors_by (index_names new_names) old_names

let write_rule t ~switch ~state (r : Policy.Compile.flow_rule) ~priority =
  let flow =
    {
      Y.Flowdir.default with
      of_match = r.of_match;
      actions = r.actions;
      priority;
    }
  in
  match Y.Yanc_fs.upsert_flow t.yfs ~cred:t.cred ~switch ~name:r.name flow with
  | Ok () ->
      Hashtbl.replace state r.name priority;
      Reg.incr t.m_written
  | Error e -> fs_failed t.m_fs_errors (switch ^ "/" ^ r.name) e

let reprioritize t ~switch ~state (r : Policy.Compile.flow_rule) ~priority =
  match
    Result.bind
      (Result.map_error Vfs.Errno.message
         (Y.Yanc_fs.open_flow t.yfs ~cred:t.cred ~switch r.name))
      (fun d ->
        Y.Flowdir.update t.fs ~cred:t.cred d (fun old ->
            { old with Y.Flowdir.priority = priority }))
  with
  | Ok _ ->
      Hashtbl.replace state r.name priority;
      Reg.incr t.m_written
  | Error e -> fs_failed t.m_fs_errors (switch ^ "/" ^ r.name) e

let delete_rule t ~switch ~state name =
  (match Y.Yanc_fs.delete_flow t.yfs ~cred:t.cred ~switch name with
  | Ok () -> Reg.incr t.m_deleted
  | Error Vfs.Errno.ENOENT -> ()
  | Error e ->
      fs_failed t.m_fs_errors (switch ^ "/" ^ name) (Vfs.Errno.message e));
  Hashtbl.remove state name

(* Renumber-all fallback: every desired rule at its canonical priority.
   Still skips rules already in place, so it only goes quadratic-ish on
   genuinely large reshuffles. *)
let install_canonical t ~switch ~state =
  List.iter
    (fun (r : Policy.Compile.flow_rule) ->
      match Hashtbl.find_opt state r.name with
      | Some p when p = r.priority -> ()
      | Some _ -> reprioritize t ~switch ~state r ~priority:r.priority
      | None -> write_rule t ~switch ~state r ~priority:r.priority)
    t.desired

let diff_install t ~new_index switch =
  let state = adopt_switch t switch in
  (* deletions first: frees names and priorities *)
  Hashtbl.fold
    (fun name _ acc -> if Hashtbl.mem new_index name then acc else name :: acc)
    state []
  |> List.iter (fun name -> delete_rule t ~switch ~state name);
  (* the surviving installed rules, highest priority first *)
  let old_list =
    Hashtbl.fold (fun name prio acc -> (name, prio) :: acc) state []
    |> List.sort (fun (n1, p1) (n2, p2) ->
           match compare p2 p1 with 0 -> String.compare n1 n2 | c -> c)
  in
  let strictly_descending =
    let rec go = function
      | (_, p1) :: ((_, p2) :: _ as rest) -> p1 > p2 && go rest
      | _ -> true
    in
    go old_list
  in
  let anchors =
    if not strictly_descending then SS.empty
    else
      SS.of_list
        (anchors_by new_index (Array.of_list (List.map fst old_list)))
  in
  (* Walk the desired list segment by segment: anchors keep their
     installed priority; the rules between two anchors spread into the
     gap. An overfull gap falls back to canonical renumbering. *)
  let exception Fallback in
  let place () =
    let pending = ref [] in
    let flush ~hi ~lo =
      let k = List.length !pending in
      if k > 0 then begin
        if hi - lo - 1 < k then raise Fallback;
        let step = max 1 ((hi - lo) / (k + 1)) in
        List.iteri
          (fun i (r : Policy.Compile.flow_rule) ->
            let priority = hi - ((i + 1) * step) in
            match Hashtbl.find_opt state r.name with
            | Some p when p = priority -> ()
            | Some _ -> reprioritize t ~switch ~state r ~priority
            | None -> write_rule t ~switch ~state r ~priority)
          (List.rev !pending);
        pending := []
      end
    in
    let hi = ref Policy.Compile.priority_base in
    List.iter
      (fun (r : Policy.Compile.flow_rule) ->
        if SS.mem r.name anchors then begin
          let anchor_prio = Hashtbl.find state r.name in
          flush ~hi:!hi ~lo:anchor_prio;
          hi := anchor_prio
        end
        else pending := r :: !pending)
      t.desired;
    flush ~hi:!hi ~lo:Policy.Compile.priority_floor
  in
  match place () with
  | () -> ()
  | exception Fallback -> install_canonical t ~switch ~state

let install t ~switches =
  if switches <> [] then begin
    let new_index =
      index_names
        (Array.of_list
           (List.map (fun (r : Policy.Compile.flow_rule) -> r.name) t.desired))
    in
    List.iter
      (fun switch ->
        Telemetry.Tracer.span t.tracer ~stage:"policy.diff" (fun () ->
            diff_install t ~new_index switch))
      switches
  end

(* --- the daemon ----------------------------------------------------------- *)

let tick t ~now:_ =
  let events = Fsnotify.Notifier.read_events t.notifier in
  let dirty = ref SS.empty in
  List.iter
    (fun (ev : Fsnotify.Event.t) ->
      if ev.wd = t.wd_switches then
        match (ev.kind, ev.name) with
        | Fsnotify.Event.Created, Some sw ->
            t.fresh_switches <- SS.add sw t.fresh_switches
        | Fsnotify.Event.Deleted, Some sw ->
            Hashtbl.remove t.sw_state sw;
            t.fresh_switches <- SS.remove sw t.fresh_switches
        | _ -> ()
      else if ev.wd = t.wd_dir then
        match (ev.kind, ev.name) with
        | Fsnotify.Event.Overflow, _ -> t.dirty_all <- true
        | _, Some name when String.length name > 0 && name.[0] <> '.' ->
            dirty := SS.add name !dirty
        | _ -> ())
    events;
  if t.dirty_all then begin
    t.dirty_all <- false;
    List.iter (fun n -> dirty := SS.add n !dirty) (policy_file_names t);
    Hashtbl.iter (fun n _ -> dirty := SS.add n !dirty) t.parsed
  end;
  let changed =
    if SS.is_empty !dirty then false
    else begin
      SS.iter (fun n -> reparse_one t n) !dirty;
      let before = t.desired_render in
      recompile t && t.desired_render <> before
    end
  in
  let fresh = t.fresh_switches in
  t.fresh_switches <- SS.empty;
  let switches =
    if changed then Y.Yanc_fs.switch_names t.yfs
    else List.filter (fun sw -> SS.mem sw fresh) (Y.Yanc_fs.switch_names t.yfs)
  in
  install t ~switches

let app t =
  App_intf.daemon ~name:"policyd"
    ~pending:(fun () ->
      t.dirty_all
      || (not (SS.is_empty t.fresh_switches))
      || Fsnotify.Notifier.pending t.notifier > 0)
    (fun ~now -> tick t ~now)

(* --- status --------------------------------------------------------------- *)

let desired t = t.desired

let status t =
  let buf = Buffer.create 256 in
  let files =
    Hashtbl.fold (fun n r acc -> (n, r) :: acc) t.parsed []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let errors =
    List.length (List.filter (fun (_, r) -> Result.is_error r) files)
  in
  Buffer.add_string buf
    (Fmt.str "files %d\nrules %d\nerrors %d\nfs_errors %d\nstate %s\n"
       (List.length files) (List.length t.desired) errors
       (Reg.value t.m_fs_errors)
       (match t.last_error with None -> "ok" | Some _ -> "error"));
  (match t.last_error with
  | Some e -> Buffer.add_string buf (Fmt.str "last_error %s\n" e)
  | None -> ());
  List.iter
    (fun (name, result) ->
      Buffer.add_string buf
        (match result with
        | Ok ir -> Fmt.str "file %s ok size=%d\n" name (Policy.Ir.size ir)
        | Error e -> Fmt.str "file %s error %s\n" name e))
    files;
  Buffer.contents buf
