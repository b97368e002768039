type t = {
  switch_cost_ns : float;
  mutable crossings : int;
  mutable charged_ns : float;
  mutable suspended : int; (* depth of [suspended] nesting *)
  (* name-lookup accounting *)
  mutable components : int;
  (* event-routing accounting (fsnotify instrumentation) *)
  mutable events_dispatched : int;
  mutable watches_visited : int;
  mutable events_coalesced : int;
  mutable overflows : int;
}

let create ?(switch_cost_ns = 1000.) () =
  { switch_cost_ns; crossings = 0; charged_ns = 0.; suspended = 0;
    components = 0; events_dispatched = 0; watches_visited = 0;
    events_coalesced = 0; overflows = 0 }

let crossings t = t.crossings

let charged_ns t = t.charged_ns

let syscall t =
  if t.suspended = 0 then begin
    t.crossings <- t.crossings + 1;
    t.charged_ns <- t.charged_ns +. t.switch_cost_ns
  end

let suspended t f =
  t.suspended <- t.suspended + 1;
  Fun.protect ~finally:(fun () -> t.suspended <- t.suspended - 1) f

(* Lookup work is counted even inside [suspended]: it measures dentry
   walking, not kernel crossings, and a libyanc batch still walks. *)
let component_resolved t = t.components <- t.components + 1

let components t = t.components

(* Event-routing work is counted like lookup work: it measures watches
   examined and events queued, not kernel crossings, so it is never gated
   by [suspended]. *)
let event_dispatched t = t.events_dispatched <- t.events_dispatched + 1

let visit_watches t n = t.watches_visited <- t.watches_visited + n

let event_coalesced t = t.events_coalesced <- t.events_coalesced + 1

let overflow_dropped t = t.overflows <- t.overflows + 1

let events_dispatched t = t.events_dispatched

let watches_visited t = t.watches_visited

let events_coalesced t = t.events_coalesced

let overflows t = t.overflows

let reset t =
  t.crossings <- 0;
  t.charged_ns <- 0.;
  t.components <- 0;
  t.events_dispatched <- 0;
  t.watches_visited <- 0;
  t.events_coalesced <- 0;
  t.overflows <- 0

let pp ppf t =
  Format.fprintf ppf
    "%d crossings (%.1f us modelled), %d components walked, notify %d \
     dispatched / %d watches visited / %d coalesced / %d overflow-dropped"
    t.crossings
    (t.charged_ns /. 1000.)
    t.components t.events_dispatched t.watches_visited t.events_coalesced
    t.overflows
