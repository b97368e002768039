module Path = Vfs.Path
module Reg = Telemetry.Registry

type mask = int

let mask kinds = List.fold_left (fun m k -> m lor Event.bit k) 0 kinds

let all =
  mask
    Event.
      [ Created; Deleted; Modified; Attrib; Moved_from; Moved_to; Delete_self;
        Move_self ]

let mask_mem k m = m land Event.bit k <> 0

type backend = Indexed | Linear

type t = {
  fs : Vfs.Fs.t;
  seq : int; (* rank in its dispatcher: notifiers are served in this order *)
  queue_limit : int;
  queue : Event.t Queue.t;
  mutable source : source;
  mutable next_wd : int;
  mutable last : Event.t option; (* tail of [queue], for coalescing *)
  mutable overflowed : bool;     (* an Overflow sentinel is queued *)
  mutable coalesced : int;
  mutable overflows : int;
  mutable on_wake : (unit -> unit) option;
  (* The file system's [fsnotify.*] counters, shared by every notifier
     on its registry. Routing work, not kernel crossings: never gated
     by [Vfs.Fs.suspended]. *)
  events_dispatched : Reg.counter;
  events_coalesced : Reg.counter;
  overflows_dropped : Reg.counter;
}

(* Where a notifier's watches live, and so how mutations reach it. *)
and source =
  | Shared of dispatcher * (int, t Routing.watch) Hashtbl.t
      (* Indexed: marks in the dispatcher's trie, found again by wd *)
  | Scan of Vfs.Fs.hook * t Routing.watch list
      (* Linear: a private hook scanning a private list *)
  | Detached

(* One FS hook and one trie for the watches of every Indexed notifier
   on a file system. The file system holds it, as the tag of its hook. *)
and dispatcher = {
  index : t Routing.t;
  mutable hook : Vfs.Fs.hook option; (* [None] only while subscribing *)
  mutable members : int;
  mutable joined : int; (* notifiers that ever joined: the next one's [seq] *)
}

type Vfs.Fs.tag += Dispatcher of dispatcher

let overflow_event =
  { Event.wd = -1; kind = Event.Overflow; path = Path.root; name = None }

let enqueue t (ev : Event.t) =
  let coalesces =
    ev.kind = Event.Modified
    &&
    match t.last with
    | Some l ->
      l.kind = Event.Modified && l.wd = ev.wd && Path.equal l.path ev.path
      && l.name = ev.name
    | None -> false
  in
  if coalesces then begin
    (* Identical to the event at the tail of the queue: merge, as
       inotify merges back-to-back IN_MODIFY. Never merges across an
       intervening event on another path or watch. *)
    t.coalesced <- t.coalesced + 1;
    Reg.incr t.events_coalesced
  end
  else if t.overflowed then begin
    t.overflows <- t.overflows + 1;
    Reg.incr t.overflows_dropped
  end
  else if Queue.length t.queue >= t.queue_limit - 1 then begin
    (* The final slot is reserved for the sentinel, so the queue never
       exceeds [queue_limit]; the triggering event is dropped, as
       inotify drops the event that would not fit. *)
    t.overflowed <- true;
    t.overflows <- t.overflows + 1;
    Reg.incr t.overflows_dropped;
    Queue.push overflow_event t.queue;
    t.last <- Some overflow_event
  end
  else begin
    Queue.push ev t.queue;
    t.last <- Some ev;
    Reg.incr t.events_dispatched;
    match t.on_wake with Some f -> f () | None -> ()
  end

(* [path] is one component below [anchor]. *)
let rec direct_child anchor path =
  match anchor, path with
  | [], [ _ ] -> true
  | a :: anchor, p :: path -> String.equal a p && direct_child anchor path
  | _ -> false

(* A child event on [path] (named [name]) passes a watch's leaf filter:
   the watch's direct children always do, deeper objects when named. *)
let admits (w : _ Routing.watch) path name =
  match w.leaves, name with
  | None, _ -> true
  | Some leaves, Some name ->
    direct_child (Path.components w.path) (Path.components path)
    || List.mem name leaves
  | Some _, None -> false

(* The events one mutation raises, as (notifier, phase, event) triples:
   a rename raises its Moved_from (phase 0) before its Moved_to (1).
   [route] finds the candidate watches of a path, of any owner; the
   number it examined is added to [visited]. *)
let route_op visited ~route (op : Vfs.Op.t) =
  let acc = ref [] in
  let deliver phase (kind : Event.kind) path =
    (* A change to [path] is reported to watches on its parent directory
       (child event, with [name]), to watches on the object itself, and
       to recursive watches on any ancestor. *)
    let selfs, childs, n_visited = route path in
    Reg.add visited n_visited;
    if selfs <> [] || childs <> [] then begin
      let add (w : t Routing.watch) kind name =
        if mask_mem kind w.mask then
          acc := (w.owner, phase, { Event.wd = w.wd; kind; path; name }) :: !acc
      in
      (* Self events: Modify/Attrib stay as-is, deletion/rename become
         *_self. Created on the watched path itself is not a self event. *)
      let self_kind =
        match kind with
        | Deleted -> Event.Delete_self
        | Moved_from -> Event.Move_self
        | k -> k
      in
      if kind <> Event.Created then
        List.iter (fun w -> add w self_kind None) selfs;
      let name = Path.basename path in
      List.iter (fun w -> if admits w path name then add w kind name) childs
    end
  in
  (match op with
  | Mkdir { path; _ } | Create { path; _ } | Symlink { path; _ } ->
    deliver 0 Event.Created path
  | Write { path; _ } | Truncate { path; _ } -> deliver 0 Event.Modified path
  | Unlink { path } | Rmdir { path; _ } -> deliver 0 Event.Deleted path
  | Rename { src; dst } ->
    deliver 0 Event.Moved_from src;
    deliver 1 Event.Moved_to dst
  | Chmod { path; _ } | Chown { path; _ } | Set_xattr { path; _ }
  | Remove_xattr { path; _ } | Set_acl { path; _ } ->
    deliver 0 Event.Attrib path);
  !acc

(* Canonical order within one mutation: notifiers in creation order (the
   order their own hooks would run in), then a rename's source before its
   destination, then ascending watch descriptor. Both backends agree, so
   routed sequences are comparable byte for byte. *)
let serve_order (a, pa, (ea : Event.t)) (b, pb, (eb : Event.t)) =
  if a.seq <> b.seq then compare a.seq b.seq
  else if pa <> pb then compare pa pb
  else compare ea.wd eb.wd

let serve = function
  | [] -> ()
  | [ (t, _, ev) ] -> enqueue t ev
  | evs ->
    List.iter (fun (t, _, ev) -> enqueue t ev) (List.sort serve_order evs)

let watches_visited fs =
  Reg.counter (Vfs.Fs.registry fs) "fsnotify.watches_visited"

(* The dispatcher a new Indexed notifier joins: the file system's newest
   hook when that is a dispatcher. *)
let join fs =
  let d =
    match Vfs.Fs.last_tag fs with
    | Some (Dispatcher d) -> d
    | _ ->
      (* No dispatcher yet, or another hook was subscribed after it:
         start one at the tail, so every notifier keeps its creation
         position among the file system's subscribers. *)
      let d = { index = Routing.create (); hook = None; members = 0; joined = 0 } in
      let visited = watches_visited fs in
      d.hook <-
        Some
          (Vfs.Fs.subscribe ~tag:(Dispatcher d) fs (fun op ->
               if Routing.count d.index > 0 then
                 serve (route_op visited ~route:(Routing.route d.index) op)));
      d
  in
  d.members <- d.members + 1;
  d.joined <- d.joined + 1;
  d

let leave fs d by_wd =
  Hashtbl.iter (fun _ w -> Routing.remove d.index w) by_wd;
  d.members <- d.members - 1;
  if d.members = 0 then Option.iter (Vfs.Fs.unsubscribe fs) d.hook

let create ?(backend = Indexed) ?(queue_limit = 16384) fs =
  let shared = match backend with Indexed -> Some (join fs) | Linear -> None in
  let reg = Vfs.Fs.registry fs in
  let t =
    { fs; seq = (match shared with Some d -> d.joined | None -> 0);
      queue_limit; queue = Queue.create ();
      source = Detached; next_wd = 1; last = None; overflowed = false;
      coalesced = 0; overflows = 0; on_wake = None;
      events_dispatched = Reg.counter reg "fsnotify.events_dispatched";
      events_coalesced = Reg.counter reg "fsnotify.events_coalesced";
      overflows_dropped = Reg.counter reg "fsnotify.overflows" }
  in
  (t.source <-
     match shared with
     | Some d -> Shared (d, Hashtbl.create 8)
     | None ->
       let visited = watches_visited fs in
       Scan
         ( Vfs.Fs.subscribe fs (fun op ->
               match t.source with
               | Scan (_, (_ :: _ as ws)) ->
                 serve (route_op visited ~route:(Routing.route_linear ws) op)
               | _ -> ()),
           [] ));
  t

let close t =
  (match t.source with
  | Shared (d, by_wd) -> leave t.fs d by_wd
  | Scan (hook, _) -> Vfs.Fs.unsubscribe t.fs hook
  | Detached -> ());
  t.source <- Detached

let add_watch ?(recursive = false) ?leaves t path mask =
  let wd = t.next_wd in
  t.next_wd <- wd + 1;
  let w = { Routing.wd; path; mask; recursive; leaves; owner = t } in
  (match t.source with
  | Shared (d, by_wd) ->
    Hashtbl.replace by_wd wd w;
    Routing.add d.index w
  | Scan (hook, ws) -> t.source <- Scan (hook, w :: ws)
  | Detached -> ());
  wd

let rm_watch t wd =
  match t.source with
  | Shared (d, by_wd) -> (
    match Hashtbl.find_opt by_wd wd with
    | Some w ->
      Hashtbl.remove by_wd wd;
      Routing.remove d.index w
    | None -> ())
  | Scan (hook, ws) ->
    t.source <-
      Scan (hook, List.filter (fun (w : t Routing.watch) -> w.wd <> wd) ws)
  | Detached -> ()

let read_events ?max t =
  Vfs.Fs.syscall t.fs;
  let n =
    match max with
    | None -> Queue.length t.queue
    | Some m -> min (Stdlib.max m 0) (Queue.length t.queue)
  in
  let out = ref [] in
  for _ = 1 to n do
    let e = Queue.pop t.queue in
    if e.Event.kind = Event.Overflow then t.overflowed <- false;
    out := e :: !out
  done;
  if Queue.is_empty t.queue then t.last <- None;
  List.rev !out

let pending t = Queue.length t.queue

let set_wakeup t f = t.on_wake <- Some f

let coalesced t = t.coalesced

let overflows t = t.overflows

let register_metrics t ~prefix registry =
  let gauge name f =
    Telemetry.Registry.gauge registry
      (Printf.sprintf "fsnotify.%s.%s" prefix name)
      (fun () -> float_of_int (f t))
  in
  gauge "pending" pending;
  gauge "coalesced" coalesced;
  gauge "overflows" overflows
