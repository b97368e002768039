type t = {
  order : string Queue.t;            (* first-marked order *)
  pending : (string, unit) Hashtbl.t;
  mutable sweep : bool;
  mutable n_marked : int;
  mutable n_coalesced : int;
  mutable n_batches : int;
  mutable n_flushed : int;
  mutable n_sweeps : int;
}

type stats = {
  marked : int;
  coalesced : int;
  batches : int;
  flushed : int;
  sweeps : int;
}

let create () =
  { order = Queue.create ();
    pending = Hashtbl.create 64;
    sweep = false;
    n_marked = 0; n_coalesced = 0; n_batches = 0; n_flushed = 0;
    n_sweeps = 0 }

let mark t key =
  t.n_marked <- t.n_marked + 1;
  if Hashtbl.mem t.pending key then begin
    t.n_coalesced <- t.n_coalesced + 1;
    false
  end
  else begin
    Hashtbl.replace t.pending key ();
    Queue.push key t.order;
    true
  end

let mark_sweep t =
  if not t.sweep then begin
    t.sweep <- true;
    t.n_sweeps <- t.n_sweeps + 1
  end

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
  let batch = go limit [] in
  (match batch with
  | [] -> ()
  | keys ->
    t.n_batches <- t.n_batches + 1;
    t.n_flushed <- t.n_flushed + List.length keys);
  batch

let clear t =
  Queue.clear t.order;
  Hashtbl.reset t.pending;
  t.sweep <- false

let stats t =
  { marked = t.n_marked; coalesced = t.n_coalesced; batches = t.n_batches;
    flushed = t.n_flushed; sweeps = t.n_sweeps }
