type t = {
  order : string Queue.t;            (* first-marked order *)
  pending : (string, unit) Hashtbl.t;
  mutable sweep : bool;
}

let create () =
  { order = Queue.create ();
    pending = Hashtbl.create 64;
    sweep = false }

let mark t key =
  if Hashtbl.mem t.pending key then false
  else begin
    Hashtbl.replace t.pending key ();
    Queue.push key t.order;
    true
  end

let mark_sweep t = t.sweep <- true

let take_sweep t =
  let s = t.sweep in
  t.sweep <- false;
  s

let sweep_pending t = t.sweep

let pending t = Hashtbl.length t.pending

let is_empty t = Hashtbl.length t.pending = 0

let take ?max t =
  let limit = match max with Some m -> m | None -> Queue.length t.order in
  let rec go n acc =
    if n = 0 || Queue.is_empty t.order then List.rev acc
    else
      let key = Queue.pop t.order in
      (* Stale order entries can't arise today (keys only leave via
         [take]/[clear], which empty both structures together), but
         skipping non-pending keys keeps the two views independent. *)
      if Hashtbl.mem t.pending key then begin
        Hashtbl.remove t.pending key;
        go (n - 1) (key :: acc)
      end
      else go n acc
  in
  go limit []

let clear t =
  Queue.clear t.order;
  Hashtbl.reset t.pending;
  t.sweep <- false
