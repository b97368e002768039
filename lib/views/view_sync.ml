module Y = Yancfs
module App_intf = Apps.App_intf

type master_flow = { switch : string; name : string; flow : Y.Flowdir.t }

type 'v translation = {
  refresh : 'v -> unit;
  view_switches : 'v -> string list;
  master_switches : 'v -> string list;
  flow_down :
    'v -> switch:string -> string -> Y.Flowdir.t -> (master_flow list, string) result;
  packet_in : 'v -> switch:string -> Y.Eventdir.event -> (string * int) option;
  packet_out :
    'v -> switch:string -> Y.Outdir.request -> (string * Y.Outdir.request) list;
}

(* What the last sync of one view flow saw and installed: its commit
   stamp and the master (switch, flow) pairs, the counting one first;
   [copied] is the (packets, bytes) last written onto the view flow. *)
type entry = {
  version : int;
  ino : int;
  installed : (string * string) list;
  mutable copied : (int64 * int64) option;
}

type t = {
  master : Y.Yanc_fs.t;
  view_fs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  vcred : Vfs.Cred.t;  (* [cred], floored at the view root *)
  name : string;
  synced : (string, (string, entry) Hashtbl.t) Hashtbl.t;
      (* view switch -> view flow -> entry *)
  events : App_intf.Packet_in.t;
  fs_errors : Telemetry.Registry.counter;
  refused : Telemetry.Registry.counter;  (* views.refused: the floor's EXDEV *)
  mutable accepted : int;
  mutable rejected : int;
}

let create ~cred ~master ~view_fs ~name =
  { master; view_fs; cred; vcred = Vfs.Cred.beneath cred (Y.Yanc_fs.root view_fs);
    name; synced = Hashtbl.create 8;
    events = App_intf.Packet_in.create master ~cred ~app:name;
    fs_errors = App_intf.fs_errors master;
    refused =
      Telemetry.Registry.counter
        (Telemetry.registry (Y.Yanc_fs.telemetry master)) "views.refused";
    accepted = 0; rejected = 0 }

let subscribe t switches =
  List.iter (fun switch -> App_intf.Packet_in.subscribe t.events ~switch) switches

(* A walk the credential floor refused is the tenant's symlink, not a
   fault of the controller: it is counted apart from app.fs_errors, so
   a tenant cannot hold the controller's health at Crit. *)
let checked t what = function
  | Error Vfs.Errno.EXDEV as r -> App_intf.checked t.refused t.name what r
  | r -> App_intf.checked t.fs_errors t.name what r

(* A view-side failure: a missing directory is the tenant's to make, so
   only [ENOENT] goes uncounted. *)
let found t what = function
  | Error Vfs.Errno.ENOENT -> None
  | Error _ as e -> checked t what e; None
  | Ok v -> Some v

let view_cred t = t.vcred

let accepted t = t.accepted

let rejected t = t.rejected

let table t switch =
  match Hashtbl.find_opt t.synced switch with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 32 in
    Hashtbl.replace t.synced switch tbl;
    tbl

let remove t installed =
  List.iter
    (fun (switch, name) ->
      match Y.Yanc_fs.delete_flow t.master ~cred:t.cred ~switch name with
      | Error Vfs.Errno.ENOENT -> () (* already gone, e.g. timed out *)
      | r -> checked t (switch ^ "/" ^ name) r)
    installed

let install t { switch; name; flow } =
  (match
     Y.Yanc_fs.upsert_flow t.master ~cred:t.cred ~switch ~name
       { flow with Y.Flowdir.version = 0; buffer_id = None }
   with
  | Ok () -> ()
  | Error e -> App_intf.fs_failed t.fs_errors t.name (switch ^ "/" ^ name) e);
  (switch, name)

(* Re-translate one view flow whose commit is news: install what it
   now compiles to, then remove what it no longer does. *)
let sync_flow t tr v ~switch tbl vflows (name, ino) =
  let vfs = Y.Yanc_fs.fs t.view_fs in
  match Y.Flowdir.read_version ~flow:name vfs ~cred:t.vcred vflows with
  | Ok None -> () (* not committed yet *)
  | Error _ as e -> checked t (switch ^ "/" ^ name ^ " version") e
  | Ok (Some version) -> (
    let seen = Hashtbl.find_opt tbl name in
    let news =
      match seen with
      | Some e ->
        Y.Flowdir.is_news ~version ~ino ~seen_version:e.version ~seen_ino:e.ino
      | None -> true
    in
    if news then
      match Y.Yanc_fs.open_flow t.view_fs ~cred:t.vcred ~switch name with
      | Error _ as e -> checked t (switch ^ "/" ^ name) e
      | Ok vdir ->
        let verdict, report =
          Y.Flowdir.read_reporting vfs ~cred:t.vcred vdir (tr.flow_down v ~switch name)
        in
        checked t (switch ^ "/" ^ name ^ " error") report;
        let installed =
          match verdict with
          | Error _ -> t.rejected <- t.rejected + 1; []
          | Ok flows -> t.accepted <- t.accepted + 1; List.map (install t) flows
        in
        Option.iter
          (fun e ->
            remove t (List.filter (fun m -> not (List.mem m installed)) e.installed))
          seen;
        Hashtbl.replace tbl name { version; ino; installed; copied = None })

(* Each counting flow's counters onto its view flow, written only when
   they differ from the last copy; each master switch's flows/ is
   opened once, on first use. *)
let counters_up t ~switch tbl vflows =
  let mflows = Hashtbl.create 4 in
  let open_master sw =
    match Hashtbl.find_opt mflows sw with
    | Some d -> d
    | None ->
      let d = Y.Yanc_fs.open_flows t.master ~cred:t.cred sw in
      Hashtbl.replace mflows sw d;
      d
  in
  Hashtbl.iter
    (fun name e ->
      match e.installed with
      | [] -> ()
      | (msw, mname) :: _ -> (
        match
          Result.map
            (Y.Flowdir.read_counters ~flow:mname (Y.Yanc_fs.fs t.master) ~cred:t.cred)
            (open_master msw)
        with
        | Ok (Some (packets, bytes) as read) when read <> e.copied ->
          let r =
            Y.Flowdir.write_counters ~flow:name (Y.Yanc_fs.fs t.view_fs)
              ~cred:t.vcred vflows ~packets ~bytes ~duration_s:0
          in
          if Result.is_ok r then e.copied <- read;
          checked t (switch ^ "/" ^ name ^ " counters") r
        | Ok _ | Error _ -> ()))
    tbl

let packet_outs_down t tr v ~switch =
  let requests =
    Y.Outdir.consume (Y.Yanc_fs.fs t.view_fs) ~cred:t.vcred
      ~root:(Y.Yanc_fs.root t.view_fs) ~switch
      ~on_error:(fun e -> checked t (switch ^ " packet-out request") (Error e))
  in
  List.iter
    (fun req ->
      List.iter
        (fun (msw, (r : Y.Outdir.request)) ->
          checked t (msw ^ " packet-out")
            (Y.Outdir.submit t.master ~cred:t.cred ~switch:msw ?in_port:r.in_port
               ~actions:r.actions ~data:r.data ()))
        (tr.packet_out v ~switch req))
    (Option.value ~default:[] (found t (switch ^ " packet-out") requests))

(* Deletion: a view flow missing from [live] takes every master flow
   made from it along. *)
let forget t tbl live =
  Hashtbl.filter_map_inplace
    (fun name e ->
      if Y.Yanc_fs.Name_set.mem name live then Some e
      else (remove t e.installed; None))
    tbl

(* One view switch: the flows/ handle serves the listing, every version
   probe and the counter writes. *)
let poll t tr v switch =
  let tbl = table t switch in
  (match Y.Yanc_fs.open_flows t.view_fs ~cred:t.vcred switch with
  | Error Vfs.Errno.ENOENT -> forget t tbl Y.Yanc_fs.Name_set.empty
  | Error _ as e -> checked t (switch ^ " flows") e
  | Ok vflows -> (
    match
      found t (switch ^ " flows")
        (Vfs.Fs.readdir_ino_at (Y.Yanc_fs.fs t.view_fs) ~cred:t.vcred vflows)
    with
    | None -> ()
    | Some listed ->
      List.iter (sync_flow t tr v ~switch tbl vflows) listed;
      forget t tbl (Y.Yanc_fs.Name_set.of_list (List.map fst listed));
      counters_up t ~switch tbl vflows));
  packet_outs_down t tr v ~switch

let events_up t tr v switch =
  App_intf.Packet_in.drain t.events ~switch (fun (ev : Y.Eventdir.event) ->
      match tr.packet_in v ~switch ev with
      | None -> ()
      | Some (vswitch, in_port) ->
        checked t (vswitch ^ " packet-in")
          (Y.Eventdir.publish t.view_fs ~cred:t.vcred ~switch:vswitch ~in_port
             ~reason:ev.reason ~buffer_id:None ~total_len:ev.total_len
             ~data:ev.data))

let run t tr v =
  tr.refresh v;
  List.iter (poll t tr v) (tr.view_switches v);
  List.iter (events_up t tr v) (tr.master_switches v)
