type version = V10 | V13

module Of10_driver = Core.Make (Of10_adapter)
module Of13_driver = Core.Make (Of13_adapter)

type attachment = {
  instance : Driver_intf.instance;
  agent : Netsim.Of_agent.t;
  sw_end : Netsim.Control_channel.endpoint;
  ctl_end : Netsim.Control_channel.endpoint;
}

(* Wake-up timers: a min-heap of (due, dpid). Entries are never
   removed — a popped entry whose switch is already runnable, or
   detached, is a spurious wake costing one hash lookup. Laziness keeps
   push/pop O(log n) with no handle bookkeeping. *)
let due_lt ((a : float), (_ : int64)) ((b : float), (_ : int64)) = a < b

type t = {
  yfs : Yancfs.Yanc_fs.t;
  net : Netsim.Network.t;
  tuning : Driver_intf.tuning;
  seed : int;
  attachments : (int64, attachment) Hashtbl.t;
  (* Switches with something to do right now: woken by channel traffic,
     fsnotify events, connection-state changes, or due timers. [step]
     touches only these — the fleet can be 8k switches wide and a quiet
     tick costs O(runnable), not O(attached). *)
  runnable : (int64, unit) Hashtbl.t;
  timers : (float * int64) Netsim.Heap.t;
  c_steps : Telemetry.Registry.counter;
  c_stepped : Telemetry.Registry.counter;
}

let create ?(tuning = Driver_intf.default_tuning) ?(seed = 0x5EED) ~yfs ~net ()
    =
  let reg = Telemetry.registry (Yancfs.Yanc_fs.telemetry yfs) in
  let t =
    { yfs; net; tuning; seed; attachments = Hashtbl.create 16;
      runnable = Hashtbl.create 16; timers = Netsim.Heap.create ~lt:due_lt;
      c_steps = Telemetry.Registry.counter reg "driver.mgr.steps";
      c_stepped = Telemetry.Registry.counter reg "driver.mgr.stepped" }
  in
  Telemetry.Registry.gauge reg "driver.mgr.attached" (fun () ->
      float_of_int (Hashtbl.length t.attachments));
  Telemetry.Registry.gauge reg "driver.mgr.runnable" (fun () ->
      float_of_int (Hashtbl.length t.runnable));
  Telemetry.Registry.gauge reg "driver.mgr.timers" (fun () ->
      float_of_int (Netsim.Heap.length t.timers));
  t

let detach t ~dpid =
  match Hashtbl.find_opt t.attachments dpid with
  | None -> ()
  | Some a ->
    a.instance.Driver_intf.detach ();
    Hashtbl.remove t.attachments dpid;
    Hashtbl.remove t.runnable dpid

(* Per-switch seed: stable across runs, distinct across switches. *)
let driver_seed t dpid = t.seed lxor (Int64.to_int dpid * 1000003)

let attach t ~dpid ~version =
  detach t ~dpid;
  match Netsim.Network.switch t.net dpid with
  | None -> invalid_arg (Printf.sprintf "Manager.attach: no switch %Ld" dpid)
  | Some sw ->
    let sw_end, ctl_end = Netsim.Control_channel.create () in
    (* Both fault delays and scripted faults fire on simulated time. *)
    Netsim.Control_channel.set_clock sw_end (fun () ->
        Netsim.Network.now t.net);
    (* Anything that gives either side of this switch's control channel
       work — bytes in flight, a disconnect, a fresh fault script, an
       fsnotify event at the driver — puts the switch on the runnable
       set. Wire the hooks before creating the driver: its handshake
       send is already traffic. *)
    let wake () = Hashtbl.replace t.runnable dpid () in
    Netsim.Control_channel.set_wakeup sw_end wake;
    Netsim.Control_channel.set_wakeup ctl_end wake;
    let agent_version =
      match version with V10 -> Netsim.Of_agent.V10 | V13 -> Netsim.Of_agent.V13
    in
    let agent =
      Netsim.Of_agent.create ~telemetry:(Yancfs.Yanc_fs.telemetry t.yfs)
        ~keepalive_interval:t.tuning.Driver_intf.keepalive_interval
        ~liveness_timeout:t.tuning.Driver_intf.liveness_timeout
        ~version:agent_version ~switch:sw ~endpoint:sw_end ~network:t.net ()
    in
    let seed = driver_seed t dpid in
    let instance =
      match version with
      | V10 ->
        Of10_driver.instance
          (Of10_driver.create ~wake ~tuning:t.tuning ~seed ~yfs:t.yfs
             ~endpoint:ctl_end ())
      | V13 ->
        Of13_driver.instance
          (Of13_driver.create ~wake ~tuning:t.tuning ~seed ~yfs:t.yfs
             ~endpoint:ctl_end ())
    in
    Hashtbl.replace t.attachments dpid { instance; agent; sw_end; ctl_end };
    wake ()

let upgrade = attach

let ordered t =
  Hashtbl.fold (fun dpid a acc -> (dpid, a) :: acc) t.attachments []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)

(* The earliest sim time stepping this switch could matter without a
   wake: driver timers, agent timers, and delivery/fault-script gates on
   both channel endpoints. *)
let due_of a ~now =
  let d = a.instance.Driver_intf.next_due ~now in
  let d = min d (Netsim.Of_agent.next_due a.agent ~now) in
  let d = min d (Netsim.Control_channel.next_activity a.sw_end) in
  min d (Netsim.Control_channel.next_activity a.ctl_end)

let step t ~now =
  Telemetry.Registry.incr t.c_steps;
  (* Promote every due timer onto the runnable set. *)
  let rec promote () =
    match Netsim.Heap.peek t.timers with
    | Some (due, _) when due <= now -> (
      match Netsim.Heap.pop t.timers with
      | Some (_, dpid) ->
        if Hashtbl.mem t.attachments dpid then
          Hashtbl.replace t.runnable dpid ();
        promote ()
      | None -> ())
    | _ -> ()
  in
  promote ();
  (* Snapshot and reset: wakes fired while stepping (driver→agent sends,
     packet-ins, fs writes) land in the fresh set and are served next
     step, exactly like the old full sweep served them next round. The
     snapshot is sorted so a round remains deterministic. *)
  let dpids =
    Hashtbl.fold (fun d () acc -> d :: acc) t.runnable []
    |> List.sort Int64.compare
  in
  Hashtbl.reset t.runnable;
  let work =
    List.filter_map
      (fun d ->
        Option.map (fun a -> d, a) (Hashtbl.find_opt t.attachments d))
      dpids
  in
  (* Fire scripted faults (hard disconnects in particular) first, as the
     old full sweep did; parked channels get here via their timer. *)
  List.iter
    (fun (_, a) ->
      Netsim.Control_channel.poll a.sw_end;
      Netsim.Control_channel.poll a.ctl_end)
    work;
  List.iter
    (fun (_, a) ->
      Telemetry.Registry.incr t.c_stepped;
      a.instance.Driver_intf.step ~now)
    work;
  List.iter (fun (_, a) -> Netsim.Of_agent.step a.agent ~now) work;
  List.iter (fun (_, a) -> a.instance.Driver_intf.step ~now) work;
  (* Park each stepped switch: keep it runnable if it was re-woken or
     still holds queued work, otherwise arm a timer for its next due
     instant (none: fully event-driven, a wake will find it). *)
  List.iter
    (fun (dpid, a) ->
      if Hashtbl.mem t.attachments dpid && not (Hashtbl.mem t.runnable dpid)
      then
        if a.instance.Driver_intf.pending () then
          Hashtbl.replace t.runnable dpid ()
        else begin
          let due = due_of a ~now in
          if due <= now then Hashtbl.replace t.runnable dpid ()
          else if due < infinity then Netsim.Heap.push t.timers (due, dpid)
        end)
    work

let run_control ?(rounds = 4) t ~now =
  for _ = 1 to rounds do
    step t ~now
  done

let driver_protocol t ~dpid =
  Option.map
    (fun a -> a.instance.Driver_intf.protocol)
    (Hashtbl.find_opt t.attachments dpid)

let switch_name t ~dpid =
  Option.bind (Hashtbl.find_opt t.attachments dpid) (fun a ->
      a.instance.Driver_intf.switch_name ())

let attached t = List.map fst (ordered t)

let channel t ~dpid =
  Option.map
    (fun a -> a.sw_end, a.ctl_end)
    (Hashtbl.find_opt t.attachments dpid)

let switch_status t ~dpid =
  Option.map
    (fun a -> a.instance.Driver_intf.status ())
    (Hashtbl.find_opt t.attachments dpid)

let link_counters t ~dpid =
  Option.map
    (fun a -> a.instance.Driver_intf.link ())
    (Hashtbl.find_opt t.attachments dpid)

let statuses t =
  List.map (fun (dpid, a) -> dpid, a.instance.Driver_intf.status ()) (ordered t)

let any_dead t =
  List.exists (fun (_, s) -> s = Driver_intf.Dead) (statuses t)
