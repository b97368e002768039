module OF = Openflow
module Msg = Openflow.Msg

type t = {
  dialect : OF.Dialect.t;
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

(* A reply reuses its request's [xid]; anything the switch originates
   takes a fresh one. *)
let send t ?xid msg =
  let xid = match xid with Some x -> x | None -> fresh_xid t in
  Control_channel.send t.endpoint (OF.Dialect.encode t.dialect ~xid msg)

(* Forward data-path effects produced by packet-out injection. *)
let run_effects t effects =
  List.iter
    (fun eff ->
      match (eff : Sim_switch.effect_) with
      | Sim_switch.Transmit { out_port; frame } ->
        Network.transmit t.network ~dpid:(Sim_switch.dpid t.switch) ~out_port frame
      | Sim_switch.Deliver_to_controller { in_port; reason; buffer_id; data; total_len } ->
        send t (Msg.Packet_in { buffer_id; total_len; in_port; reason; data }))
    effects

let packet_in_of_effect t eff = run_effects t [ eff ]

let port_status t reason info = send t (Msg.Port_status (reason, info))

let trace_key_xid xid = Printf.sprintf "xid:%ld" xid

let create ?telemetry ?(keepalive_interval = 0.) ~dialect ~switch ~endpoint
    ~network () =
  let telemetry =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~tracing:false ()
  in
  let t =
    { dialect; switch; endpoint; network; framing = OF.Framing.create ();
      next_xid = 0x10000l; telemetry; keepalive_interval;
      next_keepalive = neg_infinity;
      seen_generation = Control_channel.generation endpoint; keepalives = 0 }
  in
  Network.set_controller_sink network (Sim_switch.dpid switch)
    (packet_in_of_effect t);
  Sim_switch.on_port_change switch (port_status t);
  t

let flow_removed ~now ~table_id reason (e : Flow_table.entry) =
  Msg.Flow_removed
    { table_id; of_match = e.of_match; cookie = e.cookie;
      priority = e.priority; reason;
      duration_s = int_of_float (now -. e.install_time);
      packets = e.packets; bytes = e.bytes }

let stats_entry ~now (table_id, (e : Flow_table.entry)) =
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

(* Add and modify: install (or rewrite) the entry, answer a failure with
   an OF error, then release a buffered packet through the new actions. *)
let install t ~now ~xid (fm : Msg.flow_mod) =
  let apply =
    if fm.command = Msg.Modify then Sim_switch.flow_modify
    else Sim_switch.flow_add
  in
  let tracer = Telemetry.tracer t.telemetry in
  ignore (Telemetry.Tracer.resume tracer (trace_key_xid xid));
  (match
     Telemetry.Tracer.span tracer ~stage:"switch.install" (fun () ->
         apply t.switch ~table_id:fm.table_id ~now ~of_match:fm.of_match
           ~priority:fm.priority ~actions:fm.actions ~cookie:fm.cookie
           ~idle_timeout:fm.idle_timeout ~hard_timeout:fm.hard_timeout
           ~notify_removal:fm.notify_removal ())
   with
  | Ok () -> ()
  | Error e ->
    send t ~xid (Msg.Error_msg { ty = Msg.Flow_mod_failed; code = 0; data = e }));
  Telemetry.Tracer.clear tracer;
  match fm.buffer_id with
  | Some id ->
    run_effects t
      (Sim_switch.inject t.switch ~now ~buffer_id:(Some id) ~data:""
         ~in_port:None ~actions:fm.actions)
  | None -> ()

let handle t ~now ~xid (msg : Msg.t) =
  match msg with
  | Msg.Hello -> send t ~xid Msg.Hello
  | Msg.Echo_request data -> send t ~xid (Msg.Echo_reply data)
  | Msg.Features_request ->
    send t ~xid
      (Msg.Features_reply
         { datapath_id = Sim_switch.dpid t.switch;
           n_buffers = Sim_switch.n_buffers t.switch;
           n_tables = Sim_switch.n_tables t.switch;
           capabilities = Sim_switch.capabilities t.switch;
           ports = Some (Sim_switch.ports t.switch) })
  | Msg.Flow_mod ({ command = Msg.Add | Msg.Modify; _ } as fm) ->
    install t ~now ~xid fm
  | Msg.Flow_mod fm ->
    let removed =
      Sim_switch.flow_delete t.switch ~table_id:fm.table_id
        ~strict:(fm.command = Msg.Delete_strict) ~priority:fm.priority
        ~of_match:fm.of_match ()
    in
    List.iter
      (fun (e : Flow_table.entry) ->
        if e.notify_removal then
          send t
            (flow_removed ~now ~table_id:fm.table_id OF.Of_types.Flow_deleted e))
      removed
  | Msg.Packet_out { buffer_id; in_port; actions; data } ->
    run_effects t (Sim_switch.inject t.switch ~now ~buffer_id ~data ~in_port ~actions)
  | Msg.Port_mod { port_no; admin_down } ->
    Sim_switch.set_admin_down t.switch port_no admin_down
  | Msg.Stats_request Msg.Port_desc_req ->
    send t ~xid (Msg.Stats_reply (Msg.Port_desc_rep (Sim_switch.ports t.switch)))
  | Msg.Stats_request (Msg.Flow_stats_req { table_id; of_match }) ->
    let entries = Sim_switch.flow_stats t.switch ?table_id ~now ~of_match () in
    send t ~xid
      (Msg.Stats_reply (Msg.Flow_stats_rep (List.map (stats_entry ~now) entries)))
  | Msg.Stats_request (Msg.Port_stats_req port) ->
    send t ~xid
      (Msg.Stats_reply (Msg.Port_stats_rep (Sim_switch.port_stats t.switch port)))
  | Msg.Barrier_request -> send t ~xid Msg.Barrier_reply
  | Msg.Echo_reply _ | Msg.Error_msg _ | Msg.Features_reply _ | Msg.Packet_in _
  | Msg.Flow_removed _ | Msg.Port_status _ | Msg.Stats_reply _
  | Msg.Barrier_reply -> ()

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
        send t (flow_removed ~now ~table_id reason e)
      end)
    expired

(* --- keepalive ----------------------------------------------------------------- *)

let send_echo_request t =
  t.keepalives <- t.keepalives + 1;
  send t (Msg.Echo_request "ka")

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
      match OF.Dialect.decode t.dialect raw with
      | Ok (xid, msg) -> handle t ~now ~xid msg
      | Error e -> send t (Msg.Error_msg e))
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
