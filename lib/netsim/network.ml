module P = Packet

type endpoint = Sw of int64 * int | Hst of string

type link_state = { peer : endpoint; latency : float; mutable up : bool }

(* Every link's one-way latency: 100 µs. *)
let link_latency = 1e-4

(* [run]/[run_until] stop after this many steps even if events remain. *)
let max_events = 1_000_000

type event = { at : float; seq : int; dst : endpoint; frame : P.Eth.t }

(* Same-instant events stay FIFO: ties on [at] break on [seq]. *)
let event_lt (a : event) (b : event) =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

type t = {
  mutable now : float;
  mutable seq : int;
  heap : event Heap.t;
  switches : (int64, Sim_switch.t) Hashtbl.t;
  hosts : (string, Sim_host.t) Hashtbl.t;
  links : (endpoint, link_state) Hashtbl.t;
  sinks : (int64, Sim_switch.effect_ -> unit) Hashtbl.t;
  mutable delivered : int;
  mutable dropped : int;
}

let create () =
  { now = 0.; seq = 0; heap = Heap.create ~lt:event_lt;
    switches = Hashtbl.create 16; hosts = Hashtbl.create 16;
    links = Hashtbl.create 32; sinks = Hashtbl.create 16; delivered = 0;
    dropped = 0 }

let now t = t.now

let add_switch t sw = Hashtbl.replace t.switches (Sim_switch.dpid sw) sw

let add_host t h = Hashtbl.replace t.hosts (Sim_host.name h) h

let switch t dpid = Hashtbl.find_opt t.switches dpid

let host t name = Hashtbl.find_opt t.hosts name

let switches t =
  Hashtbl.fold (fun _ sw acc -> sw :: acc) t.switches []
  |> List.sort (fun a b -> Int64.compare (Sim_switch.dpid a) (Sim_switch.dpid b))

let hosts t =
  Hashtbl.fold (fun _ h acc -> h :: acc) t.hosts []
  |> List.sort (fun a b -> String.compare (Sim_host.name a) (Sim_host.name b))

let datapath_cost t =
  let total = Flow_table.Cost.create () in
  Hashtbl.iter
    (fun _ sw ->
      Flow_table.Cost.absorb ~into:total (Sim_switch.datapath_cost sw))
    t.switches;
  total

let ensure_port t = function
  | Hst _ -> ()
  | Sw (dpid, port) -> (
    match Hashtbl.find_opt t.switches dpid with
    | None -> ()
    | Some sw ->
      if Sim_switch.port sw port = None then Sim_switch.add_port sw port)

let set_carrier t ep down =
  match ep with
  | Hst _ -> ()
  | Sw (dpid, port) -> (
    match Hashtbl.find_opt t.switches dpid with
    | None -> ()
    | Some sw -> Sim_switch.set_link_down sw port down)

let link t a b =
  ensure_port t a;
  ensure_port t b;
  Hashtbl.replace t.links a { peer = b; latency = link_latency; up = true };
  Hashtbl.replace t.links b { peer = a; latency = link_latency; up = true };
  set_carrier t a false;
  set_carrier t b false

let unlink t ep =
  match Hashtbl.find_opt t.links ep with
  | None -> ()
  | Some ls ->
    Hashtbl.remove t.links ep;
    Hashtbl.remove t.links ls.peer;
    set_carrier t ep true;
    set_carrier t ls.peer true

let set_link_up t ep up =
  match Hashtbl.find_opt t.links ep with
  | None -> ()
  | Some ls ->
    ls.up <- up;
    (match Hashtbl.find_opt t.links ls.peer with
    | Some back -> back.up <- up
    | None -> ());
    set_carrier t ep (not up);
    set_carrier t ls.peer (not up)

let peer_of t ep =
  match Hashtbl.find_opt t.links ep with
  | Some ls when ls.up -> Some ls.peer
  | Some _ | None -> None

let canonical_le a b =
  match a, b with
  | Sw (d1, p1), Sw (d2, p2) -> d1 < d2 || (d1 = d2 && p1 <= p2)
  | Hst h1, Hst h2 -> String.compare h1 h2 <= 0
  | Sw _, Hst _ -> true
  | Hst _, Sw _ -> false

let link_endpoints t =
  Hashtbl.fold
    (fun ep ls acc -> if canonical_le ep ls.peer then (ep, ls.peer) :: acc else acc)
    t.links []

let set_controller_sink t dpid f = Hashtbl.replace t.sinks dpid f

let schedule t ~delay ~dst frame =
  t.seq <- t.seq + 1;
  Heap.push t.heap { at = t.now +. delay; seq = t.seq; dst; frame }

let send_on_link t ep frame =
  match Hashtbl.find_opt t.links ep with
  | Some ls when ls.up -> schedule t ~delay:ls.latency ~dst:ls.peer frame
  | Some _ | None -> t.dropped <- t.dropped + 1

let transmit t ~dpid ~out_port frame = send_on_link t (Sw (dpid, out_port)) frame

let send_from_host t name frames =
  List.iter (fun f -> send_on_link t (Hst name) f) frames

let handle_effects t dpid effects =
  List.iter
    (fun eff ->
      match (eff : Sim_switch.effect_) with
      | Sim_switch.Transmit { out_port; frame } ->
        send_on_link t (Sw (dpid, out_port)) frame
      | Sim_switch.Deliver_to_controller _ -> (
        match Hashtbl.find_opt t.sinks dpid with
        | Some sink -> sink eff
        | None -> ()))
    effects

(* Only expire flows on switches without an attached agent — an agent
   runs expiry itself so it can emit flow-removed messages. *)
let expire_all t =
  Hashtbl.iter
    (fun dpid sw ->
      if not (Hashtbl.mem t.sinks dpid) then
        ignore (Sim_switch.expire_flows sw ~now:t.now))
    t.switches

let deliver t ev =
  t.delivered <- t.delivered + 1;
  match ev.dst with
  | Sw (dpid, port) -> (
    match Hashtbl.find_opt t.switches dpid with
    | None -> ()
    | Some sw ->
      handle_effects t dpid
        (Sim_switch.receive_frame sw ~now:t.now ~in_port:port ev.frame))
  | Hst name -> (
    match Hashtbl.find_opt t.hosts name with
    | None -> ()
    | Some h ->
      let replies = Sim_host.receive h ~now:t.now ev.frame in
      List.iter (fun f -> send_on_link t (Hst name) f) replies)

(* Note: flow expiry driven by the agent (which needs to emit
   flow-removed) happens in Of_agent.step; the network-level expiry here
   covers unattached switches used directly in tests. *)
let step t =
  match Heap.peek t.heap with
  | None -> false
  | Some first ->
    let at = first.at in
    t.now <- at;
    let rec drain () =
      match Heap.peek t.heap with
      | Some ev when ev.at = at -> (
        match Heap.pop t.heap with
        | Some ev ->
          deliver t ev;
          drain ()
        | None -> ())
      | Some _ | None -> ()
    in
    drain ();
    true

let run t =
  let budget = ref max_events in
  while !budget > 0 && step t do
    decr budget
  done

let run_until t pred =
  let budget = ref max_events in
  let ok = ref (pred ()) in
  while (not !ok) && !budget > 0 && step t do
    decr budget;
    ok := pred ()
  done;
  !ok

let advance_idle t dt =
  t.now <- t.now +. dt;
  expire_all t

let pending_events t = Heap.length t.heap

let stats t = t.delivered, t.dropped
