(* The benchmark's only clock, read from outside the program: wall time
   on CLOCK_MONOTONIC (bechamel's stub). Every probe below is
   allocation-free, so an instrumented run allocates exactly what an
   uninstrumented one does and the GC counts stay comparable. *)

let[@inline] now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Layers timed in a traced run, named by the module whose public call
   is timed. The calls run one after another, so each total is that
   layer's self time. *)
type layer =
  | Inject
  | Ingest
  | Tick
  | Commit
  | Network
  | Cluster_step
  | Compile

let layers = [ Inject; Ingest; Tick; Commit; Network; Cluster_step; Compile ]

let layer_name = function
  | Inject -> "netsim.workload.inject"
  | Ingest -> "driver.manager.ingest"
  | Tick -> "yanc.scheduler.tick"
  | Commit -> "driver.manager.commit"
  | Network -> "netsim.network.run"
  | Cluster_step -> "yanc.cluster.step"
  | Compile -> "policy.compile"

let index = function
  | Inject -> 0
  | Ingest -> 1
  | Tick -> 2
  | Commit -> 3
  | Network -> 4
  | Cluster_step -> 5
  | Compile -> 6

type t = {
  traced : bool;
  self : float array;  (* seconds per layer, indexed by [index] *)
  excluded : float array;  (* [| seconds spent in benchmark checks |] *)
}

let create ~traced =
  { traced; self = Array.make (List.length layers) 0.; excluded = [| 0. |] }

let traced t = t.traced

(* Wall time with the benchmark's own checks cut out: the measured
   phase of every workload is read on this clock. *)
let[@inline] measured t = now () -. t.excluded.(0)

(* Open the measured phase: layer times charged during set-up drop. *)
let start t =
  Array.fill t.self 0 (Array.length t.self) 0.;
  measured t

let[@inline] charge t layer t0 =
  let i = index layer in
  t.self.(i) <- t.self.(i) +. (now () -. t0)

let[@inline] exclude_since t t0 =
  t.excluded.(0) <- t.excluded.(0) +. (now () -. t0)

let self_s t layer = t.self.(index layer)
