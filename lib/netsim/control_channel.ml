module Faults = struct
  type policy = {
    drop : float;
    duplicate : float;
    reorder : float;
    delay : float;
    delay_s : float;
    truncate : float;
    reconnect_after : float;
  }

  let default =
    { drop = 0.; duplicate = 0.; reorder = 0.; delay = 0.; delay_s = 0.;
      truncate = 0.; reconnect_after = 0. }

  type action = Drop_next of int | Truncate_next of int | Disconnect

  type script_entry = { at : float; action : action }

  type t = {
    policy : policy;
    prng : Prng.t;
    mutable script : script_entry list;  (* sorted by [at] *)
    mutable drop_next : int;
    mutable truncate_next : int option;
    mutable dropped : int;
    mutable duplicated : int;
    mutable reordered : int;
    mutable truncated : int;
    mutable delayed : int;
  }

  let create ?(policy = default) ?(script = []) ~seed () =
    { policy; prng = Prng.create ~seed;
      script = List.sort (fun a b -> compare a.at b.at) script;
      drop_next = 0; truncate_next = None; dropped = 0; duplicated = 0;
      reordered = 0; truncated = 0; delayed = 0 }
end

type fault_stats = {
  dropped : int;
  duplicated : int;
  reordered : int;
  truncated : int;
  delayed : int;
}

type msg = { deliver_at : float; data : string }

(* An unrolled FIFO that supports the reorder fault: [front] pops
   oldest-first, [back] holds newer messages newest-first. *)
type inbox = { mutable front : msg list; mutable back : msg list }

(* Connection state lives on the channel, not the endpoint: a TCP
   session dies as a whole. *)
type shared = {
  mutable connected : bool;
  mutable generation : int;
  mutable clock : unit -> float;
  mutable disconnected_at : float;
  mutable reconnect_gate : float;
  mutable disconnects : int;
}

type endpoint = {
  inbox : inbox;
  mutable peer : endpoint option;
  mutable sent : int;
  mutable faults : Faults.t option;
  mutable on_wake : (unit -> unit) option;
  mutable tap : (string -> unit) option;
  shared : shared;
}

type t = endpoint * endpoint

let create () =
  let shared =
    { connected = true; generation = 0; clock = (fun () -> 0.);
      disconnected_at = 0.; reconnect_gate = 0.; disconnects = 0 }
  in
  let ep () =
    { inbox = { front = []; back = [] }; peer = None; sent = 0; faults = None;
      on_wake = None; tap = None; shared }
  in
  let a = ep () and b = ep () in
  a.peer <- Some b;
  b.peer <- Some a;
  a, b

let set_clock ep clock = ep.shared.clock <- clock

let wake ep = match ep.on_wake with Some f -> f () | None -> ()

let wake_peer ep = match ep.peer with Some p -> wake p | None -> ()

let set_wakeup ep f = ep.on_wake <- Some f

let set_tap ep f = ep.tap <- Some f

let set_faults ep f =
  ep.faults <- f;
  (* A fresh script may hold due (or soon-due) entries the owner's next
     idle estimate knows nothing about. *)
  wake ep;
  wake_peer ep

let connected ep = ep.shared.connected

let generation ep = ep.shared.generation

let disconnects ep = ep.shared.disconnects

let flush inbox =
  inbox.front <- [];
  inbox.back <- []

let disconnect ep =
  let s = ep.shared in
  if s.connected then begin
    s.connected <- false;
    s.disconnected_at <- s.clock ();
    s.disconnects <- s.disconnects + 1;
    s.reconnect_gate <-
      (match ep.faults with
      | Some f -> f.Faults.policy.Faults.reconnect_after
      | None -> 0.);
    flush ep.inbox;
    (match ep.peer with Some p -> flush p.inbox | None -> ());
    wake ep;
    wake_peer ep
  end

let reconnect ep =
  let s = ep.shared in
  if s.connected then true
  else if s.clock () >= s.disconnected_at +. s.reconnect_gate then begin
    s.connected <- true;
    s.generation <- s.generation + 1;
    flush ep.inbox;
    (match ep.peer with Some p -> flush p.inbox | None -> ());
    wake ep;
    wake_peer ep;
    true
  end
  else false

(* Fire scripted faults that have come due. *)
let poll ep =
  match ep.faults with
  | None -> ()
  | Some f ->
    let now = ep.shared.clock () in
    let rec go () =
      match f.Faults.script with
      | { Faults.at; action } :: rest when at <= now ->
        f.Faults.script <- rest;
        (match action with
        | Faults.Drop_next n -> f.Faults.drop_next <- f.Faults.drop_next + n
        | Faults.Truncate_next n -> f.Faults.truncate_next <- Some n
        | Faults.Disconnect -> disconnect ep);
        go ()
      | _ -> ()
    in
    go ()

let enqueue inbox msg = inbox.back <- msg :: inbox.back

(* Deliver before the previous message: the adjacent swap that models a
   reordered TCP segment boundary. Skipped (deterministically) when no
   newer-side predecessor exists. *)
let enqueue_reordered inbox msg =
  match inbox.back with
  | prev :: rest -> inbox.back <- prev :: msg :: rest
  | [] -> enqueue inbox msg

let faulted_send ep (f : Faults.t) peer data =
  let p = f.Faults.policy in
  let now = ep.shared.clock () in
  let prng = f.Faults.prng in
  (* scripted drops / truncations consume their counters first *)
  if f.Faults.drop_next > 0 then begin
    f.Faults.drop_next <- f.Faults.drop_next - 1;
    f.Faults.dropped <- f.Faults.dropped + 1
  end
  else if Prng.bool prng p.Faults.drop then
    f.Faults.dropped <- f.Faults.dropped + 1
  else begin
    let data =
      match f.Faults.truncate_next with
      | Some n ->
        f.Faults.truncate_next <- None;
        f.Faults.truncated <- f.Faults.truncated + 1;
        String.sub data 0 (min n (String.length data))
      | None ->
        if String.length data > 0 && Prng.bool prng p.Faults.truncate then begin
          f.Faults.truncated <- f.Faults.truncated + 1;
          (* keep a strict prefix: 0 .. len-1 bytes *)
          String.sub data 0 (Prng.below prng (String.length data))
        end
        else data
    in
    let deliver_at =
      if p.Faults.delay_s > 0. && Prng.bool prng p.Faults.delay then begin
        f.Faults.delayed <- f.Faults.delayed + 1;
        now +. (Prng.float prng *. p.Faults.delay_s)
      end
      else now
    in
    let msg = { deliver_at; data } in
    if Prng.bool prng p.Faults.reorder then begin
      f.Faults.reordered <- f.Faults.reordered + 1;
      enqueue_reordered peer.inbox msg
    end
    else enqueue peer.inbox msg;
    if Prng.bool prng p.Faults.duplicate then begin
      f.Faults.duplicated <- f.Faults.duplicated + 1;
      enqueue peer.inbox msg
    end
  end

let send ep data =
  ep.sent <- ep.sent + String.length data;
  Option.iter (fun f -> f data) ep.tap;
  match ep.peer with
  | None -> ()
  | Some peer -> (
    match ep.faults with
    | None ->
      if ep.shared.connected then begin
        enqueue peer.inbox { deliver_at = 0.; data };
        wake peer
      end
    | Some f ->
      poll ep;
      if ep.shared.connected then begin
        faulted_send ep f peer data;
        (* Even a dropped send wakes the peer: a spurious wake costs one
           no-op step, a missed one stalls the receiver forever. *)
        wake peer
      end)

let recv ep =
  let inbox = ep.inbox in
  (if inbox.front = [] then begin
     inbox.front <- List.rev inbox.back;
     inbox.back <- []
   end);
  match inbox.front with
  | m :: rest when m.deliver_at <= ep.shared.clock () ->
    inbox.front <- rest;
    Some m.data
  | _ -> None

let recv_all ep =
  let rec go acc =
    match recv ep with None -> List.rev acc | Some c -> go (c :: acc)
  in
  go []

let pending ep = List.length ep.inbox.front + List.length ep.inbox.back

let rec last = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: rest -> last rest

let next_activity ep =
  let script_at =
    match ep.faults with
    | Some f -> (
      match f.Faults.script with
      | { Faults.at; _ } :: _ -> at
      | [] -> infinity)
    | None -> infinity
  in
  let inbox_at =
    (* Delivery is gated on the oldest queued message ([recv] pops
       front-head, refilling front by reversing back), so the gate is
       front's head — or, with front empty, back's last element. *)
    match ep.inbox.front with
    | m :: _ -> m.deliver_at
    | [] -> (
      match last ep.inbox.back with
      | Some m -> m.deliver_at
      | None -> infinity)
  in
  min script_at inbox_at

let bytes_sent ep = ep.sent

let fault_stats ep =
  match ep.faults with
  | None ->
    { dropped = 0; duplicated = 0; reordered = 0; truncated = 0; delayed = 0 }
  | Some f ->
    { dropped = f.Faults.dropped; duplicated = f.Faults.duplicated;
      reordered = f.Faults.reordered; truncated = f.Faults.truncated;
      delayed = f.Faults.delayed }
