module P = Packet
module OF = Openflow
module Port_info = OF.Of_types.Port_info
module Port_stats = OF.Of_types.Port_stats

type effect_ =
  | Transmit of { out_port : int; frame : P.Eth.t }
  | Deliver_to_controller of {
      in_port : int;
      reason : OF.Of_types.packet_in_reason;
      buffer_id : int32 option;
      data : string;
      total_len : int;
    }

(* A QoS queue: token bucket with a burst of one second's worth. *)
type queue_state = {
  rate_bytes_per_s : float;
  mutable tokens : float;
  mutable last_refill : float;
  mutable q_tx_packets : int64;
  mutable q_tx_bytes : int64;
  mutable q_dropped : int64;
}

type port_state = {
  mutable info : Port_info.t;
  mutable stats : Port_stats.t;
  queues : (int, queue_state) Hashtbl.t;
}

type t = {
  dpid : int64;
  n_buffers : int;
  miss_send_len : int;
  cost : Flow_table.Cost.t; (* shared by every table of the pipeline *)
  tables : Flow_table.t array;
  ports : (int, port_state) Hashtbl.t;
  buffers : (int32, int * P.Eth.t) Hashtbl.t;
  mutable buffer_order : int32 list; (* FIFO for eviction *)
  mutable next_buffer : int32;
  mutable port_change :
    (OF.Of_types.port_status_reason -> Port_info.t -> unit) list;
}

let port_mac dpid port_no =
  (* A locally-administered MAC derived from dpid and port. *)
  P.Mac.of_int
    ((0x02 lsl 40)
    lor (Int64.to_int (Int64.logand dpid 0xffffffffL) lsl 8)
    lor (port_no land 0xff))

let dpid t = t.dpid

let datapath_cost t = t.cost

let n_tables t = Array.length t.tables

let n_buffers t = t.n_buffers

let capabilities _ = OF.Of_types.Capabilities.default

let make_port t ?(speed_mbps = 1000) port_no =
  { info =
      Port_info.make ~speed_mbps ~port_no ~hw_addr:(port_mac t.dpid port_no) ();
    stats = Port_stats.zero port_no;
    queues = Hashtbl.create 4 }

(* Controllers normally raise miss_send_len to "send everything" via
   SET_CONFIG; we default to that so applications see whole frames.
   Pass a small value to exercise the buffering path. *)
let create ?(n_tables = 1) ?(n_buffers = 256) ?(miss_send_len = 0xffff)
    ?(strategy = Flow_table.Linear) ?(n_ports = 4) ~dpid () =
  let cost = Flow_table.Cost.create () in
  let t =
    { dpid; n_buffers; miss_send_len; cost;
      tables =
        Array.init (max 1 n_tables) (fun _ ->
            Flow_table.create ~strategy ~cost ());
      ports = Hashtbl.create 16;
      buffers = Hashtbl.create 64;
      buffer_order = [];
      next_buffer = 1l;
      port_change = [] }
  in
  for port_no = 1 to n_ports do
    Hashtbl.replace t.ports port_no (make_port t port_no)
  done;
  t

let ports t =
  Hashtbl.fold (fun _ p acc -> p.info :: acc) t.ports []
  |> List.sort (fun (a : Port_info.t) b -> compare a.port_no b.port_no)

let port t n = Option.map (fun p -> p.info) (Hashtbl.find_opt t.ports n)

let on_port_change t f = t.port_change <- f :: t.port_change

let notify_port t reason info =
  List.iter (fun f -> f reason info) t.port_change

let add_port t ?speed_mbps port_no =
  if not (Hashtbl.mem t.ports port_no) then begin
    let p = make_port t ?speed_mbps port_no in
    Hashtbl.replace t.ports port_no p;
    notify_port t OF.Of_types.Port_add p.info
  end

let remove_port t port_no =
  match Hashtbl.find_opt t.ports port_no with
  | None -> ()
  | Some p ->
    Hashtbl.remove t.ports port_no;
    notify_port t OF.Of_types.Port_delete p.info

let set_admin_down t port_no down =
  match Hashtbl.find_opt t.ports port_no with
  | None -> ()
  | Some p ->
    if p.info.Port_info.admin_down <> down then begin
      p.info <- { p.info with Port_info.admin_down = down };
      notify_port t OF.Of_types.Port_modify p.info
    end

let set_link_down t port_no down =
  match Hashtbl.find_opt t.ports port_no with
  | None -> ()
  | Some p ->
    if p.info.Port_info.link_down <> down then begin
      p.info <- { p.info with Port_info.link_down = down };
      notify_port t OF.Of_types.Port_modify p.info
    end

let port_stats t filter =
  let all =
    Hashtbl.fold (fun _ p acc -> p.stats :: acc) t.ports []
    |> List.sort (fun (a : Port_stats.t) b -> compare a.port_no b.port_no)
  in
  match filter with
  | None -> all
  | Some n -> List.filter (fun (s : Port_stats.t) -> s.port_no = n) all

let port_usable p =
  (not p.info.Port_info.admin_down) && not p.info.Port_info.link_down

(* --- QoS queues ------------------------------------------------------------- *)

let add_queue t ~port ~queue_id ~rate_mbps =
  match Hashtbl.find_opt t.ports port with
  | None -> ()
  | Some p ->
    let rate_bytes_per_s = float_of_int rate_mbps *. 1_000_000. /. 8. in
    Hashtbl.replace p.queues queue_id
      { rate_bytes_per_s; tokens = rate_bytes_per_s; last_refill = 0.;
        q_tx_packets = 0L; q_tx_bytes = 0L; q_dropped = 0L }

type queue_stats = {
  queue_id : int;
  rate_mbps : int;
  tx_packets : int64;
  tx_bytes : int64;
  dropped : int64;
}

let queue_stats t ~port =
  match Hashtbl.find_opt t.ports port with
  | None -> []
  | Some p ->
    Hashtbl.fold
      (fun queue_id q acc ->
        { queue_id;
          rate_mbps = int_of_float (q.rate_bytes_per_s *. 8. /. 1_000_000.);
          tx_packets = q.q_tx_packets;
          tx_bytes = q.q_tx_bytes;
          dropped = q.q_dropped }
        :: acc)
      p.queues []
    |> List.sort (fun a b -> compare a.queue_id b.queue_id)

(* True when the bucket admits [bytes] at [now] (consuming them). *)
let queue_admits q ~now ~bytes =
  let elapsed = max 0. (now -. q.last_refill) in
  q.tokens <-
    Float.min q.rate_bytes_per_s (q.tokens +. (elapsed *. q.rate_bytes_per_s));
  q.last_refill <- now;
  let b = float_of_int bytes in
  if q.tokens >= b then begin
    q.tokens <- q.tokens -. b;
    true
  end
  else false

(* --- flow table management -------------------------------------------------- *)

let check_table t table_id =
  if table_id < 0 || table_id >= Array.length t.tables then
    Error (Printf.sprintf "no such table %d" table_id)
  else Ok t.tables.(table_id)

let flow_add t ?(table_id = 0) ~now ~of_match ~priority ~actions ?cookie
    ?idle_timeout ?hard_timeout ?notify_removal () =
  Result.map
    (fun table ->
      Flow_table.add table ~now ~of_match ~priority ~actions ?cookie
        ?idle_timeout ?hard_timeout ?notify_removal ())
    (check_table t table_id)

let flow_modify t ?(table_id = 0) ~now ~of_match ~priority ~actions ?cookie
    ?idle_timeout ?hard_timeout ?notify_removal () =
  Result.map
    (fun table ->
      if Flow_table.modify table ~of_match ~actions = 0 then
        Flow_table.add table ~now ~of_match ~priority ~actions ?cookie
          ?idle_timeout ?hard_timeout ?notify_removal ())
    (check_table t table_id)

let flow_delete t ?table_id ?strict ?priority ~of_match () =
  let tables =
    match table_id with
    | Some id -> (match check_table t id with Ok tbl -> [ tbl ] | Error _ -> [])
    | None -> Array.to_list t.tables
  in
  List.concat_map
    (fun tbl -> Flow_table.delete ?strict ?priority tbl ~of_match)
    tables

let flow_stats t ?table_id ?now ~of_match () =
  let with_id =
    match table_id with
    | Some id -> if Result.is_ok (check_table t id) then [ id ] else []
    | None -> List.init (Array.length t.tables) Fun.id
  in
  List.concat_map
    (fun id ->
      (* With [now], expired-but-not-yet-reaped entries are invisible:
         a stats reply must not report a rule the datapath would no
         longer match (resync diffs depend on this). *)
      (match now with
      | Some now -> Flow_table.live_entries t.tables.(id) ~now
      | None -> Flow_table.entries t.tables.(id))
      |> List.filter (fun (e : Flow_table.entry) ->
             OF.Of_match.subsumes of_match e.of_match)
      |> List.map (fun e -> id, e))
    with_id

let table t id = if id >= 0 && id < Array.length t.tables then Some t.tables.(id) else None

let expire_flows t ~now =
  Array.to_list t.tables
  |> List.mapi (fun id tbl -> List.map (fun e -> id, e) (Flow_table.expire tbl ~now))
  |> List.concat

let has_timed_flows t =
  Array.exists (fun tbl -> Flow_table.timed tbl > 0) t.tables

(* --- buffers ------------------------------------------------------------------ *)

let store_buffer t ~in_port frame =
  let id = t.next_buffer in
  t.next_buffer <- Int32.add t.next_buffer 1l;
  if Hashtbl.length t.buffers >= t.n_buffers then begin
    match List.rev t.buffer_order with
    | oldest :: _ ->
      Hashtbl.remove t.buffers oldest;
      t.buffer_order <-
        List.filter (fun b -> not (Int32.equal b oldest)) t.buffer_order
    | [] -> ()
  end;
  Hashtbl.replace t.buffers id (in_port, frame);
  t.buffer_order <- id :: t.buffer_order;
  id

let pop_buffer t id =
  match Hashtbl.find_opt t.buffers id with
  | None -> None
  | Some v ->
    Hashtbl.remove t.buffers id;
    t.buffer_order <- List.filter (fun b -> not (Int32.equal b id)) t.buffer_order;
    Some v

(* --- the data path -------------------------------------------------------------- *)

let record_tx t out_port bytes =
  match Hashtbl.find_opt t.ports out_port with
  | None -> ()
  | Some p ->
    p.stats <-
      { p.stats with
        Port_stats.tx_packets = Int64.add p.stats.Port_stats.tx_packets 1L;
        tx_bytes = Int64.add p.stats.Port_stats.tx_bytes (Int64.of_int bytes) }

let record_rx t in_port bytes =
  match Hashtbl.find_opt t.ports in_port with
  | None -> ()
  | Some p ->
    p.stats <-
      { p.stats with
        Port_stats.rx_packets = Int64.add p.stats.Port_stats.rx_packets 1L;
        rx_bytes = Int64.add p.stats.Port_stats.rx_bytes (Int64.of_int bytes) }

let record_rx_drop t in_port =
  match Hashtbl.find_opt t.ports in_port with
  | None -> ()
  | Some p ->
    p.stats <-
      { p.stats with
        Port_stats.rx_dropped = Int64.add p.stats.Port_stats.rx_dropped 1L }

(* Resolve one output action on a (possibly rewritten) frame. *)
let emit_output t ~in_port frame = function
  | OF.Action.Physical out_port ->
    if
      match Hashtbl.find_opt t.ports out_port with
      | Some p -> port_usable p
      | None -> false
    then begin
      record_tx t out_port (P.Eth.size frame);
      [ Transmit { out_port; frame } ]
    end
    else []
  | OF.Action.In_port ->
    (match in_port with
    | Some out_port ->
      record_tx t out_port (P.Eth.size frame);
      [ Transmit { out_port; frame } ]
    | None -> [])
  | OF.Action.Flood | OF.Action.All as a ->
    Hashtbl.fold
      (fun no p acc ->
        let is_ingress = match in_port with Some i -> i = no | None -> false in
        if port_usable p && ((not is_ingress) || a = OF.Action.All) then begin
          record_tx t no (P.Eth.size frame);
          Transmit { out_port = no; frame } :: acc
        end
        else acc)
      t.ports []
    |> List.sort (fun a b ->
           match a, b with
           | Transmit x, Transmit y -> compare x.out_port y.out_port
           | _ -> 0)
  | OF.Action.Controller max_len ->
    let data = P.Eth.to_wire frame in
    let total_len = String.length data in
    let keep = if max_len = 0 then total_len else min max_len total_len in
    [ Deliver_to_controller
        { in_port = Option.value in_port ~default:0;
          reason = OF.Of_types.Action_explicit;
          buffer_id = None;
          data = String.sub data 0 keep;
          total_len } ]
  | OF.Action.Drop -> []

(* Apply an action list: header rewrites take effect in order, and each
   output sends the frame as rewritten so far (OF 1.0 semantics). An
   enqueue is an output through the port's token bucket; a frame the
   bucket rejects is dropped and counted against the queue. A reference
   to an unconfigured queue degrades to a plain output, mirroring
   permissive hardware. *)
let apply_actions t ~now ~in_port frame actions =
  let effects = ref [] in
  let current = ref frame in
  List.iter
    (fun action ->
      match action with
      | OF.Action.Output port ->
        effects := !effects @ emit_output t ~in_port !current port
      | OF.Action.Enqueue { port; queue_id } -> (
        match Hashtbl.find_opt t.ports port with
        | None -> ()
        | Some p -> (
          match Hashtbl.find_opt p.queues queue_id with
          | None ->
            effects :=
              !effects @ emit_output t ~in_port !current (OF.Action.Physical port)
          | Some q ->
            let bytes = P.Eth.size !current in
            if queue_admits q ~now ~bytes then begin
              q.q_tx_packets <- Int64.add q.q_tx_packets 1L;
              q.q_tx_bytes <- Int64.add q.q_tx_bytes (Int64.of_int bytes);
              effects :=
                !effects
                @ emit_output t ~in_port !current (OF.Action.Physical port)
            end
            else q.q_dropped <- Int64.add q.q_dropped 1L))
      | _ -> current := OF.Action.apply_one action !current)
    actions;
  !effects

let table_miss t ~now:_ ~in_port frame =
  let data = P.Eth.to_wire frame in
  let total_len = String.length data in
  if total_len <= t.miss_send_len then
    [ Deliver_to_controller
        { in_port; reason = OF.Of_types.No_match; buffer_id = None; data;
          total_len } ]
  else begin
    let buffer_id = store_buffer t ~in_port frame in
    [ Deliver_to_controller
        { in_port; reason = OF.Of_types.No_match; buffer_id = Some buffer_id;
          data = String.sub data 0 t.miss_send_len; total_len } ]
  end

(* Run the pipeline from [table_id]: the first table holding a match
   applies its actions; on a miss, lookup falls through to the next
   table in order, and past the last one the packet goes to the
   controller. Goto-table is not modelled (the OF 1.3 codec refuses
   it). *)
let rec pipeline t ~now ~in_port frame table_id =
  if table_id >= Array.length t.tables then table_miss t ~now ~in_port frame
  else begin
    let headers = P.Headers.of_eth ~in_port frame in
    match Flow_table.lookup t.tables.(table_id) ~now headers with
    | Some entry ->
      Flow_table.hit entry ~now ~bytes:(P.Eth.size frame);
      if entry.actions = [] then [] (* explicit drop *)
      else apply_actions t ~now ~in_port:(Some in_port) frame entry.actions
    | None ->
      if table_id + 1 < Array.length t.tables then
        pipeline t ~now ~in_port frame (table_id + 1)
      else table_miss t ~now ~in_port frame
  end

let receive_frame t ~now ~in_port frame =
  match Hashtbl.find_opt t.ports in_port with
  | None -> []
  | Some p ->
    if not (port_usable p) then begin
      record_rx_drop t in_port;
      []
    end
    else begin
      record_rx t in_port (P.Eth.size frame);
      pipeline t ~now ~in_port frame 0
    end

let inject t ~now ~buffer_id ~data ~in_port ~actions =
  let frame_and_port =
    match buffer_id with
    | Some id -> pop_buffer t id |> Option.map (fun (p, f) -> Some p, f)
    | None -> (
      match P.Eth.of_wire data with
      | Some f -> Some (in_port, f)
      | None -> None)
  in
  match frame_and_port with
  | None -> []
  | Some (port, frame) ->
    let in_port = match in_port with Some _ -> in_port | None -> port in
    apply_actions t ~now ~in_port frame actions
