(* What every experiment shares: table output, registry reads, the
   bechamel runner, min-of-N timing, the smoke gate, the fixtures the
   micro-benchmarks build on, and the JSON writer behind every
   BENCH_*.json artifact. Experiment modules [open Harness]. *)

module Y = Yancfs
module N = Netsim
module OF = Openflow
module P = Packet
module Fs = Vfs.Fs

let cred = Vfs.Cred.root

let net_root = Y.Layout.default_root

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let row fmt =
  Printf.ksprintf
    (fun s ->
      print_string s;
      flush stdout)
    fmt

(* Every count is a registry counter: read it by name from a snapshot,
   so a misspelled or unregistered series fails instead of reading 0. *)
let count reg name =
  match Telemetry.Registry.find (Telemetry.Registry.snapshot reg) name with
  | Some v -> int_of_float v
  | None -> failwith ("no registry series " ^ name)

let fs_count fs name = count (Fs.registry fs) name

let ctl_count ctl name =
  count (Telemetry.registry (Yanc.Controller.telemetry ctl)) name

(* The smallest of [n] runs of [f]. *)
let min_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (f ())
  done;
  !best

(* [min_of n] of both [off] and [on], run alternately so that drift in
   the machine's speed hits both sides alike. *)
let min_pair n off on =
  let best_off = ref infinity in
  let best_on =
    min_of n (fun () ->
        best_off := Float.min !best_off (off ());
        on ())
  in
  (!best_off, best_on)

(* A smoke check: when [ok] is false, print the message and fail the
   run. *)
let gate ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        Printf.printf "bench-smoke: FAIL — %s\n%!" msg;
        exit 1
      end)
    fmt

(* The value of a file-system read, or a smoke failure naming [what]. *)
let gate_ok what r =
  gate (Result.is_ok r) "%s: %s" what
    (match r with Error e -> Vfs.Errno.message e | Ok _ -> "");
  Result.get_ok r

(* --- bechamel ---------------------------------------------------------------- *)

let run_benchmarks tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"" tests)
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> (name, ns) :: acc
      | _ -> acc)
    res []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_benchmarks tests =
  List.iter
    (fun (name, ns) ->
      row "  %-46s %12.0f ns/op  (%8.2f us)\n" name ns (ns /. 1000.))
    (run_benchmarks tests)

let test name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f)

(* --- fixtures ----------------------------------------------------------------- *)

let fresh_yancfs ?(switches = 1) () =
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  for i = 1 to switches do
    ignore
      (Y.Yanc_fs.add_switch yfs
         ~name:(Y.Yanc_fs.switch_name_of_dpid (Int64.of_int i))
         ~dpid:(Int64.of_int i) ~protocol:"openflow10" ~n_buffers:256
         ~n_tables:1 ~capabilities:[] ~actions:[])
  done;
  fs, yfs

(* One switch on a linear network with its driver attached and
   handshaken: the driver and its commit queue alone, no controller
   loop. *)
let driver_rig ?strategy () =
  let built = N.Topo_gen.linear ?strategy 1 in
  let yfs = Y.Yanc_fs.create (Fs.create ()) in
  let mgr = Driver.Manager.create ~yfs ~net:built.N.Topo_gen.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  built.N.Topo_gen.net, yfs, mgr

(* Entries in table 0 of switch [dpid]'s hardware. *)
let hw_entries net dpid =
  match N.Sim_switch.table (Option.get (N.Network.switch net dpid)) 0 with
  | Some t -> N.Flow_table.length t
  | None -> 0

(* A controller running topology discovery and the reactive router. *)
let reactive_controller ?tracing ?tuning net =
  let ctl = Yanc.Controller.create ?tracing ?tuning ~net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
  Yanc.Controller.add_app ctl (Apps.Router.app (Apps.Router.create yfs));
  ctl

let sample_flow i =
  { Y.Flowdir.default with
    Y.Flowdir.of_match =
      { OF.Of_match.any with
        OF.Of_match.dl_type = Some 0x0800; tp_dst = Some (i land 0xffff) };
    actions = [ OF.Action.Output (OF.Action.Physical ((i mod 8) + 1)) ];
    priority = 100 }

(* --- JSON artifacts ------------------------------------------------------------ *)

module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of int * float  (* digits after the point, value *)
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* RFC 8259 §7: quote, backslash and every control byte are escaped;
     other bytes pass through (the strings written are UTF-8). *)
  let quote s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

  let scalar = function List _ | Obj _ -> false | _ -> true

  (* A container of scalars prints on one line; any other container
     puts each element on its own line, indented. *)
  let rec render indent = function
    | Bool b -> string_of_bool b
    | Int i -> string_of_int i
    | Float (_, f) when not (Float.is_finite f) -> "null"
    | Float (digits, f) -> Printf.sprintf "%.*f" digits f
    | String s -> quote s
    | List l -> container indent "[" "]" (List.map (fun v -> "", v) l)
    | Obj kvs -> container indent "{" "}" (List.map (fun (k, v) -> quote k ^ ": ", v) kvs)

  and container indent opening closing items =
    let inner = indent ^ "  " in
    let item (key, v) = key ^ render inner v in
    if items = [] then opening ^ closing
    else if List.for_all (fun (_, v) -> scalar v) items then
      opening ^ " " ^ String.concat ", " (List.map item items) ^ " " ^ closing
    else
      opening ^ "\n" ^ inner
      ^ String.concat (",\n" ^ inner) (List.map item items)
      ^ "\n" ^ indent ^ closing

  let to_string v = render "" v

  let write path v =
    let oc = open_out path in
    output_string oc (to_string v ^ "\n");
    close_out oc;
    row "  wrote %s\n" path
end
