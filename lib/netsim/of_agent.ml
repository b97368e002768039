module OF = Openflow

type version = V10 | V13

type t = {
  version : version;
  switch : Sim_switch.t;
  endpoint : Control_channel.endpoint;
  network : Network.t;
  framing : OF.Framing.t;
  mutable next_xid : int32;
  telemetry : Telemetry.t;
  (* Keepalive: the firmware half of connection survival.
     [keepalive_interval = 0.] disables it (the default for bare agents
     built in tests; the driver manager turns it on). *)
  keepalive_interval : float;
  mutable next_keepalive : float;
  mutable seen_generation : int;
  mutable keepalives : int;
}

let fresh_xid t =
  let xid = t.next_xid in
  t.next_xid <- Int32.add xid 1l;
  xid

let send10 t msg = Control_channel.send t.endpoint (OF.Of10.encode ~xid:(fresh_xid t) msg)

let send13 t msg = Control_channel.send t.endpoint (OF.Of13.encode ~xid:(fresh_xid t) msg)

let send10x t ~xid msg = Control_channel.send t.endpoint (OF.Of10.encode ~xid msg)

let send13x t ~xid msg = Control_channel.send t.endpoint (OF.Of13.encode ~xid msg)

(* Forward data-path effects produced by packet-out injection. *)
let run_effects t effects =
  List.iter
    (fun eff ->
      match (eff : Sim_switch.effect_) with
      | Sim_switch.Transmit { out_port; frame } ->
        Network.transmit t.network ~dpid:(Sim_switch.dpid t.switch) ~out_port frame
      | Sim_switch.Deliver_to_controller { in_port; reason; buffer_id; data; total_len } ->
        (match t.version with
        | V10 ->
          send10 t (OF.Of10.Packet_in { buffer_id; total_len; in_port; reason; data })
        | V13 ->
          send13 t
            (OF.Of13.Packet_in
               { buffer_id; total_len; reason; table_id = 0; cookie = 0L;
                 in_port; data })))
    effects

let packet_in_of_effect t eff = run_effects t [ eff ]

let port_status t reason info =
  match t.version with
  | V10 -> send10 t (OF.Of10.Port_status (reason, info))
  | V13 -> send13 t (OF.Of13.Port_status (reason, info))

let trace_key_xid xid = Printf.sprintf "xid:%ld" xid

let create ?telemetry ?(keepalive_interval = 0.) ~version
    ~switch ~endpoint ~network () =
  let telemetry =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~tracing:false ()
  in
  let t =
    { version; switch; endpoint; network; framing = OF.Framing.create ();
      next_xid = 0x10000l; telemetry; keepalive_interval;
      next_keepalive = neg_infinity;
      seen_generation = Control_channel.generation endpoint; keepalives = 0 }
  in
  Network.set_controller_sink network (Sim_switch.dpid switch)
    (packet_in_of_effect t);
  Sim_switch.on_port_change switch (port_status t);
  t

let version t = t.version

(* --- OF 1.0 ----------------------------------------------------------------- *)

let stats_entry (table_id, (e : Flow_table.entry)) ~now =
  ( table_id,
    { OF.Of_types.Flow_stats.of_match = e.of_match;
      priority = e.priority;
      cookie = e.cookie;
      packets = e.packets;
      bytes = e.bytes;
      duration_s = int_of_float (now -. e.install_time);
      idle_timeout = e.idle_timeout;
      hard_timeout = e.hard_timeout;
      actions = e.actions } )

let handle10 t ~now ~xid (msg : OF.Of10.msg) =
  match msg with
  | OF.Of10.Hello -> send10x t ~xid OF.Of10.Hello
  | OF.Of10.Echo_request data -> send10x t ~xid (OF.Of10.Echo_reply data)
  | OF.Of10.Features_request ->
    send10x t ~xid
      (OF.Of10.Features_reply
         { datapath_id = Sim_switch.dpid t.switch;
           n_buffers = Sim_switch.n_buffers t.switch;
           n_tables = Sim_switch.n_tables t.switch;
           capabilities = Sim_switch.capabilities t.switch;
           ports = Sim_switch.ports t.switch })
  | OF.Of10.Flow_mod fm -> begin
    match fm.command with
    | OF.Of10.Add -> begin
      let tracer = Telemetry.tracer t.telemetry in
      ignore (Telemetry.Tracer.resume tracer (trace_key_xid xid));
      (match
         Telemetry.Tracer.span tracer ~stage:"switch.install" (fun () ->
             Sim_switch.flow_add t.switch ~now ~of_match:fm.of_match
               ~priority:fm.priority ~actions:fm.actions ~cookie:fm.cookie
               ~idle_timeout:fm.idle_timeout ~hard_timeout:fm.hard_timeout
               ~notify_removal:fm.notify_removal ())
       with
      | Ok () -> ()
      | Error e ->
        send10x t ~xid (OF.Of10.Error_msg { ty = 3; code = 0; data = e }));
      Telemetry.Tracer.clear tracer;
      (* A buffered packet attached to the flow-mod is released through
         the new actions. *)
      match fm.buffer_id with
      | Some id ->
        run_effects t
          (Sim_switch.inject t.switch ~now ~buffer_id:(Some id) ~data:""
             ~in_port:None ~actions:fm.actions)
      | None -> ()
    end
    | OF.Of10.Modify ->
      ignore
        (Sim_switch.flow_modify t.switch ~now ~of_match:fm.of_match
           ~actions:fm.actions ())
    | OF.Of10.Delete | OF.Of10.Delete_strict ->
      let strict = fm.command = OF.Of10.Delete_strict in
      let removed =
        Sim_switch.flow_delete t.switch ~strict ~priority:fm.priority
          ~of_match:fm.of_match ()
      in
      List.iter
        (fun (e : Flow_table.entry) ->
          if e.notify_removal then
            send10 t
              (OF.Of10.Flow_removed
                 { of_match = e.of_match; cookie = e.cookie;
                   priority = e.priority; reason = OF.Of_types.Flow_deleted;
                   duration_s = int_of_float (now -. e.install_time);
                   packets = e.packets; bytes = e.bytes }))
        removed
  end
  | OF.Of10.Packet_out { buffer_id; in_port; actions; data } ->
    run_effects t (Sim_switch.inject t.switch ~now ~buffer_id ~data ~in_port ~actions)
  | OF.Of10.Port_mod { port_no; admin_down } ->
    Sim_switch.set_admin_down t.switch port_no admin_down
  | OF.Of10.Stats_request (OF.Of10.Flow_stats_req m) ->
    let entries = Sim_switch.flow_stats t.switch ~now ~of_match:m () in
    send10x t ~xid
      (OF.Of10.Stats_reply
         (OF.Of10.Flow_stats_rep (List.map (fun e -> snd (stats_entry e ~now)) entries)))
  | OF.Of10.Stats_request (OF.Of10.Port_stats_req port) ->
    send10x t ~xid
      (OF.Of10.Stats_reply (OF.Of10.Port_stats_rep (Sim_switch.port_stats t.switch port)))
  | OF.Of10.Barrier_request -> send10x t ~xid OF.Of10.Barrier_reply
  | OF.Of10.Echo_reply _ | OF.Of10.Error_msg _ | OF.Of10.Features_reply _
  | OF.Of10.Packet_in _ | OF.Of10.Flow_removed _ | OF.Of10.Port_status _
  | OF.Of10.Stats_reply _ | OF.Of10.Barrier_reply -> ()

(* --- OF 1.3 ----------------------------------------------------------------- *)

let handle13 t ~now ~xid (msg : OF.Of13.msg) =
  match msg with
  | OF.Of13.Hello -> send13x t ~xid OF.Of13.Hello
  | OF.Of13.Echo_request data -> send13x t ~xid (OF.Of13.Echo_reply data)
  | OF.Of13.Features_request ->
    send13x t ~xid
      (OF.Of13.Features_reply
         { datapath_id = Sim_switch.dpid t.switch;
           n_buffers = Sim_switch.n_buffers t.switch;
           n_tables = Sim_switch.n_tables t.switch;
           capabilities = Sim_switch.capabilities t.switch })
  | OF.Of13.Flow_mod fm -> begin
    let actions = OF.Of13.actions_of_instructions fm.instructions in
    match fm.command with
    | OF.Of13.Add -> begin
      let tracer = Telemetry.tracer t.telemetry in
      ignore (Telemetry.Tracer.resume tracer (trace_key_xid xid));
      (match
         Telemetry.Tracer.span tracer ~stage:"switch.install" (fun () ->
             Sim_switch.flow_add t.switch ~table_id:fm.table_id ~now
               ~of_match:fm.of_match ~priority:fm.priority ~actions
               ~cookie:fm.cookie ~idle_timeout:fm.idle_timeout
               ~hard_timeout:fm.hard_timeout ~notify_removal:fm.notify_removal ())
       with
      | Ok () -> ()
      | Error e ->
        send13x t ~xid (OF.Of13.Error_msg { ty = 4; code = 0; data = e }));
      Telemetry.Tracer.clear tracer;
      match fm.buffer_id with
      | Some id ->
        run_effects t
          (Sim_switch.inject t.switch ~now ~buffer_id:(Some id) ~data:""
             ~in_port:None ~actions)
      | None -> ()
    end
    | OF.Of13.Modify ->
      ignore
        (Sim_switch.flow_modify t.switch ~table_id:fm.table_id ~now
           ~of_match:fm.of_match ~actions ())
    | OF.Of13.Delete | OF.Of13.Delete_strict ->
      let strict = fm.command = OF.Of13.Delete_strict in
      let removed =
        Sim_switch.flow_delete t.switch ~table_id:fm.table_id ~strict
          ~priority:fm.priority ~of_match:fm.of_match ()
      in
      List.iter
        (fun (e : Flow_table.entry) ->
          if e.notify_removal then
            send13 t
              (OF.Of13.Flow_removed
                 { table_id = fm.table_id; of_match = e.of_match;
                   cookie = e.cookie; priority = e.priority;
                   reason = OF.Of_types.Flow_deleted;
                   duration_s = int_of_float (now -. e.install_time);
                   packets = e.packets; bytes = e.bytes }))
        removed
  end
  | OF.Of13.Packet_out { buffer_id; in_port; actions; data } ->
    run_effects t (Sim_switch.inject t.switch ~now ~buffer_id ~data ~in_port ~actions)
  | OF.Of13.Port_mod { port_no; admin_down } ->
    Sim_switch.set_admin_down t.switch port_no admin_down
  | OF.Of13.Multipart_request OF.Of13.Port_desc_req ->
    send13x t ~xid
      (OF.Of13.Multipart_reply (OF.Of13.Port_desc_rep (Sim_switch.ports t.switch)))
  | OF.Of13.Multipart_request (OF.Of13.Flow_stats_req { table_id; of_match }) ->
    let entries = Sim_switch.flow_stats t.switch ?table_id ~now ~of_match () in
    send13x t ~xid
      (OF.Of13.Multipart_reply
         (OF.Of13.Flow_stats_rep
            (List.map
               (fun e ->
                 let table_id, stats = stats_entry e ~now in
                 { OF.Of13.table_id; stats;
                   instructions = [ OF.Of13.Apply_actions stats.actions ] })
               entries)))
  | OF.Of13.Multipart_request (OF.Of13.Port_stats_req port) ->
    send13x t ~xid
      (OF.Of13.Multipart_reply
         (OF.Of13.Port_stats_rep (Sim_switch.port_stats t.switch port)))
  | OF.Of13.Barrier_request -> send13x t ~xid OF.Of13.Barrier_reply
  | OF.Of13.Echo_reply _ | OF.Of13.Error_msg _ | OF.Of13.Features_reply _
  | OF.Of13.Packet_in _ | OF.Of13.Flow_removed _ | OF.Of13.Port_status _
  | OF.Of13.Multipart_reply _ | OF.Of13.Barrier_reply -> ()

(* --- expiry ------------------------------------------------------------------ *)

let expire t ~now =
  let expired = Sim_switch.expire_flows t.switch ~now in
  List.iter
    (fun ((table_id, e) : int * Flow_table.entry) ->
      if e.notify_removal then begin
        let reason =
          if e.hard_timeout > 0 && now -. e.install_time >= float_of_int e.hard_timeout
          then OF.Of_types.Hard_timeout_hit
          else OF.Of_types.Idle_timeout_hit
        in
        match t.version with
        | V10 ->
          send10 t
            (OF.Of10.Flow_removed
               { of_match = e.of_match; cookie = e.cookie; priority = e.priority;
                 reason; duration_s = int_of_float (now -. e.install_time);
                 packets = e.packets; bytes = e.bytes })
        | V13 ->
          send13 t
            (OF.Of13.Flow_removed
               { table_id; of_match = e.of_match; cookie = e.cookie;
                 priority = e.priority; reason;
                 duration_s = int_of_float (now -. e.install_time);
                 packets = e.packets; bytes = e.bytes })
      end)
    expired

(* --- keepalive ----------------------------------------------------------------- *)

let send_echo_request t =
  t.keepalives <- t.keepalives + 1;
  match t.version with
  | V10 -> send10 t (OF.Of10.Echo_request "ka")
  | V13 -> send13 t (OF.Of13.Echo_request "ka")

let keepalive t ~now =
  (* A reconnected channel is a fresh byte stream: whatever the framer
     held belonged to the old connection. *)
  let gen = Control_channel.generation t.endpoint in
  if gen <> t.seen_generation then begin
    t.seen_generation <- gen;
    OF.Framing.reset t.framing
  end;
  if t.keepalive_interval > 0. && Control_channel.connected t.endpoint then begin
    if t.next_keepalive = neg_infinity then
      t.next_keepalive <- now +. t.keepalive_interval
    else if now >= t.next_keepalive then begin
      send_echo_request t;
      t.next_keepalive <- now +. t.keepalive_interval
    end
  end

let step t ~now =
  Control_channel.poll t.endpoint;
  let chunks = Control_channel.recv_all t.endpoint in
  keepalive t ~now;
  List.iter (OF.Framing.push t.framing) chunks;
  List.iter
    (fun raw ->
      match t.version with
      | V10 -> (
        match OF.Of10.decode raw with
        | Ok (xid, msg) -> handle10 t ~now ~xid msg
        | Error e ->
          send10 t (OF.Of10.Error_msg { ty = 0; code = 0; data = e }))
      | V13 -> (
        match OF.Of13.decode raw with
        | Ok (xid, msg) -> handle13 t ~now ~xid msg
        | Error e ->
          send13 t (OF.Of13.Error_msg { ty = 0; code = 0; data = e })))
    (OF.Framing.pop_all t.framing);
  expire t ~now

(* When stepping this agent could next do something on its own: the
   keepalive timer, or — while any installed flow carries a timeout —
   right now, preserving the per-tick expiry sweep those flows need.
   Channel activity (inbound bytes, scripted faults) is the
   {!Control_channel.next_activity} of its endpoint, tracked by the
   scheduler separately. *)
let next_due t ~now =
  let keepalive_at =
    if t.keepalive_interval > 0. && Control_channel.connected t.endpoint then
      if t.next_keepalive = neg_infinity then now else t.next_keepalive
    else infinity
  in
  if Sim_switch.has_timed_flows t.switch then min now keepalive_at
  else keepalive_at

let keepalives_sent t = t.keepalives
