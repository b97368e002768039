module OF = Openflow

type record = {
  mutable seq : int;
  mutable switch : string;
  mutable in_port : int;
  mutable reason : OF.Of_types.packet_in_reason;
  mutable buffer_id : int32 option;
  mutable total_len : int;
  mutable data : string;
  mutable at : float;
}

type consumer = {
  mutable cursor : int;    (* next seq this consumer will see *)
  mutable c_overruns : int;
}

type t = {
  cap : int;
  (* seq → slot by modulus; slots before [head] hold stale records
     already recycled (never read: every cursor is >= head). *)
  slots : record array;
  pool : record Netsim.Pool.t;
  telemetry : Telemetry.t;
  mutable head : int;   (* oldest retained seq *)
  mutable next : int;   (* next seq to assign *)
  mutable consumers : consumer list;
  m_published : Telemetry.Registry.counter;
  m_dropped : Telemetry.Registry.counter;
  m_drained : Telemetry.Registry.counter;
  m_batch : Telemetry.Registry.histogram;
}

let fresh_record () =
  { seq = 0; switch = ""; in_port = 0; reason = OF.Of_types.No_match;
    buffer_id = None; total_len = 0; data = ""; at = 0. }

let create ?(capacity = 16384) ~telemetry () =
  if capacity < 1 then invalid_arg "Pktin.create: capacity must be >= 1";
  let reg = Telemetry.registry telemetry in
  let pool = Netsim.Pool.create ~capacity ~make:fresh_record () in
  Netsim.Pool.register_metrics pool ~name:"pktin" reg;
  { cap = capacity;
    slots = Array.init capacity (fun _ -> fresh_record ());
    pool; telemetry; head = 0; next = 0; consumers = [];
    m_published = Telemetry.Registry.counter reg "driver.pktin.published";
    m_dropped = Telemetry.Registry.counter reg "driver.pktin.dropped";
    m_drained = Telemetry.Registry.counter reg "driver.pktin.drained";
    m_batch = Telemetry.Registry.histogram reg "driver.pktin.batch" }

let subscribe t =
  let c = { cursor = t.next; c_overruns = 0 } in
  t.consumers <- c :: t.consumers;
  c

let unsubscribe t c =
  t.consumers <- List.filter (fun c' -> c' != c) t.consumers

let trace_key seq = Printf.sprintf "pktin:%d" seq

(* Recycle every record all consumers have passed. *)
let advance_head t =
  let min_cursor =
    List.fold_left (fun acc c -> min acc c.cursor) t.next t.consumers
  in
  while t.head < min_cursor do
    Netsim.Pool.release t.pool t.slots.(t.head mod t.cap);
    t.head <- t.head + 1
  done

let publish t ~switch ~in_port ~reason ~buffer_id ~total_len ~data ~at =
  let seq = t.next in
  t.next <- seq + 1;
  Telemetry.Registry.incr t.m_published;
  if t.consumers = [] then begin
    (* Nobody listening: the ring stays untouched and cursors stay
       pinned to [next], so head catches up for free. *)
    t.head <- t.next;
    Telemetry.Registry.incr t.m_dropped
  end
  else begin
    (* Full ring: the oldest event is overwritten; lagging consumers
       skip forward and count the loss. *)
    if t.next - t.head > t.cap then begin
      Netsim.Pool.release t.pool t.slots.(t.head mod t.cap);
      t.head <- t.head + 1;
      Telemetry.Registry.incr t.m_dropped;
      List.iter
        (fun c ->
          if c.cursor < t.head then begin
            c.c_overruns <- c.c_overruns + (t.head - c.cursor);
            c.cursor <- t.head
          end)
        t.consumers
    end;
    let r = Netsim.Pool.acquire t.pool in
    r.seq <- seq;
    r.switch <- switch;
    r.in_port <- in_port;
    r.reason <- reason;
    r.buffer_id <- buffer_id;
    r.total_len <- total_len;
    r.data <- data;
    r.at <- at;
    t.slots.(seq mod t.cap) <- r;
    Telemetry.Tracer.stamp (Telemetry.tracer t.telemetry) (trace_key seq)
  end;
  seq

let drain t c ~max f =
  let n = ref 0 in
  while !n < max && c.cursor < t.next do
    let r = t.slots.(c.cursor mod t.cap) in
    c.cursor <- c.cursor + 1;
    f r;
    incr n
  done;
  if !n > 0 then begin
    Telemetry.Registry.add t.m_drained !n;
    Telemetry.Registry.observe t.m_batch (float_of_int !n);
    advance_head t
  end;
  !n

let pending t c = t.next - c.cursor

let overruns c = c.c_overruns

let published t = Telemetry.Registry.value t.m_published

let dropped t = Telemetry.Registry.value t.m_dropped

let pool t = t.pool
