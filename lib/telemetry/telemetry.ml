(** The controller's observability layer (the procfs/ftrace analog):
    one {!Registry} of named counters/gauges/histograms and one
    {!Tracer} of request spans, created together and threaded through
    the controller so every component reports into the same namespace.

    Consumption is file I/O — the registry renders to
    [/yanc/.proc/metrics] and the tracer to [/yanc/.proc/trace_pipe]
    (see [Yancfs.Procdir]); nothing here depends on the VFS. *)

module Registry = Registry
module Tracer = Tracer
module Health = Health
module Blackbox = Blackbox

type t = { registry : Registry.t; tracer : Tracer.t; blackbox : Blackbox.t }

(* [registry] defaults to a fresh one; a controller passes the registry
   its file system owns, so both report into one namespace. *)
let create ?(registry = Registry.create ()) ?(tracing = true) ?capacity
    ?blackbox_capacity () =
  let tracer = Tracer.create ?capacity registry in
  Tracer.set_enabled tracer tracing;
  (* The tracer's own health is part of the registry. *)
  Registry.gauge registry "trace.spans_recorded" (fun () ->
      float_of_int (Tracer.spans_recorded tracer));
  Registry.gauge registry "trace.dropped" (fun () ->
      float_of_int (Tracer.drops tracer));
  (* The flight recorder sees every completed span (even ones the trace
     ring later overruns); status/fault events are fed by the drivers. *)
  let blackbox = Blackbox.create ?capacity:blackbox_capacity () in
  Tracer.set_sink tracer
    (Some
       (fun (r : Tracer.record) ->
         Blackbox.span blackbox ~at:r.t1 ~stage:r.stage ~trace:r.trace
           ~lat:(if r.trace = 0 then 0. else r.t1 -. r.origin)));
  Registry.gauge registry "blackbox.recorded" (fun () ->
      float_of_int (Blackbox.recorded blackbox));
  { registry; tracer; blackbox }

let registry t = t.registry

let tracer t = t.tracer

let blackbox t = t.blackbox

let set_tracing t b = Tracer.set_enabled t.tracer b

let tracing t = Tracer.enabled t.tracer
