(* The network fsck. One reader of committed flows, one reader of
   hardware tables, one comparison over the full committed tuple; every
   "hardware ≡ file system ≡ policy" check in the tree calls this. *)

module Y = Yancfs
module Compile = Policy.Compile

type rule = {
  of_match : Openflow.Of_match.t;
  priority : int;
  actions : Openflow.Action.t list;
  idle_timeout : int;
  hard_timeout : int;
  cookie : int64;
}

type policy_fault = Missing of string | Extra of string | Differs of string | Misordered

type report = {
  switch : string;
  fs_rules : int;
  hw_rules : int;
  fs_only : rule list;
  hw_only : rule list;
  invalid : (string * string) list;
  policy : policy_fault list;
}

module Rules = Set.Make (struct type t = rule let compare = compare end)

let cred = Vfs.Cred.root

(* The pol_* leg: the desired names, each with the desired match and
   actions, file priorities strictly descending in the desired order. *)
let policy_faults flows (desired : Compile.flow_rule list) =
  let by_name = Hashtbl.of_seq (List.to_seq flows) in
  let wanted = Hashtbl.create 64 in
  List.iter (fun (d : Compile.flow_rule) -> Hashtbl.replace wanted d.name ()) desired;
  let found =
    List.map (fun (d : Compile.flow_rule) -> (d, Hashtbl.find_opt by_name d.name)) desired
  in
  let fault ((d : Compile.flow_rule), flow) =
    match flow with
    | None -> Some (Missing d.name)
    | Some (Ok (f : Y.Flowdir.t))
      when Openflow.Of_match.equal f.of_match d.of_match && f.actions = d.actions ->
      None
    | Some _ -> Some (Differs d.name)
  in
  let extra (name, _) =
    if String.starts_with ~prefix:Apps.Policy_engine.flow_prefix name
       && not (Hashtbl.mem wanted name)
    then Some (Extra name)
    else None
  in
  let rec descending = function a :: (b :: _ as l) -> a > b && descending l | _ -> true in
  let priorities =
    List.filter_map
      (function _, Some (Ok (f : Y.Flowdir.t)) -> Some f.priority | _ -> None)
      found
  in
  List.filter_map fault found @ List.filter_map extra flows
  @ if descending priorities then [] else [ Misordered ]

let switch yfs sw ~now ~desired =
  let name = Y.Yanc_fs.switch_name_of_dpid (Netsim.Sim_switch.dpid sw) in
  let flows =
    List.map
      (fun f -> (f, Y.Yanc_fs.read_flow yfs ~cred ~switch:name f))
      (Y.Yanc_fs.flow_names yfs ~cred name)
  in
  let committed =
    Rules.of_list
      (List.filter_map
         (function
           | _, Ok (f : Y.Flowdir.t) ->
             Some
               { of_match = f.of_match; priority = f.priority; actions = f.actions;
                 idle_timeout = f.idle_timeout; hard_timeout = f.hard_timeout;
                 cookie = f.cookie }
           | _, Error _ -> None)
         flows)
  in
  let hw =
    Rules.of_list
      (List.map
         (fun (_, (e : Netsim.Flow_table.entry)) ->
           { of_match = e.of_match; priority = e.priority; actions = e.actions;
             idle_timeout = e.idle_timeout; hard_timeout = e.hard_timeout;
             cookie = e.cookie })
         (Netsim.Sim_switch.flow_stats sw ~now ~of_match:Openflow.Of_match.any ()))
  in
  (* A committed rule hardware lacks is not missing when a sibling with
     its (match, priority) is installed: that add replaced it. *)
  let installed = Hashtbl.create 64 in
  Rules.iter (fun i -> Hashtbl.replace installed (i.priority, i.of_match) ())
    (Rules.inter committed hw);
  let replaced r = Hashtbl.mem installed (r.priority, r.of_match) in
  { switch = name;
    fs_rules = Rules.cardinal committed;
    hw_rules = Rules.cardinal hw;
    fs_only =
      Rules.elements (Rules.filter (fun r -> not (replaced r)) (Rules.diff committed hw));
    hw_only = Rules.elements (Rules.diff hw committed);
    invalid = List.filter_map (function f, Error e -> Some (f, e) | _, Ok _ -> None) flows;
    policy = (match desired with None -> [] | Some d -> policy_faults flows d) }

let ok r = r.fs_only = [] && r.hw_only = [] && r.policy = []

type shard = Owned of string * report | Unowned of string

let shard_ok = function Owned (_, r) -> ok r | Unowned _ -> false

(* --- rendering ---------------------------------------------------------------- *)

let add_report b ~tag r =
  let rule side r =
    Format.kasprintf (Buffer.add_string b)
      "  %s priority=%d match=%a actions=%a idle=%d hard=%d cookie=0x%Lx\n" side
      r.priority Openflow.Of_match.pp r.of_match Openflow.Action.pp_list r.actions
      r.idle_timeout r.hard_timeout r.cookie
  in
  Printf.bprintf b "%s %s%s fs=%d hw=%d invalid=%d\n" r.switch
    (if ok r then "ok" else "diverged")
    tag r.fs_rules r.hw_rules (List.length r.invalid);
  List.iter (rule "fs_only") r.fs_only;
  List.iter (rule "hw_only") r.hw_only;
  List.iter (fun (f, e) -> Printf.bprintf b "  invalid %s: %s\n" f e) r.invalid;
  List.iter
    (fun fault ->
      Buffer.add_string b
        (match fault with
        | Missing n -> "  policy missing " ^ n ^ "\n"
        | Extra n -> "  policy extra " ^ n ^ "\n"
        | Differs n -> "  policy differs " ^ n ^ "\n"
        | Misordered -> "  policy misordered\n"))
    r.policy

let count p l = List.length (List.filter p l)

let status bad = if bad = 0 then "ok" else "diverged"

let render reports =
  let b = Buffer.create 256 in
  let bad = count (fun r -> not (ok r)) reports in
  Printf.bprintf b "status %s\nswitches: %d, %d diverged, %d invalid flow dirs\n"
    (status bad)
    (List.length reports) bad
    (List.fold_left (fun n r -> n + List.length r.invalid) 0 reports);
  List.iter (add_report b ~tag:"") reports;
  Buffer.contents b

let render_shards shards =
  let b = Buffer.create 256 in
  let unowned = count (function Unowned _ -> true | Owned _ -> false) shards in
  let bad = count (fun s -> not (shard_ok s)) shards in
  Printf.bprintf b "status %s\nshards: %d owned, %d unowned, %d diverged\n" (status bad)
    (List.length shards - unowned) unowned (bad - unowned);
  List.iter
    (function
      | Owned (node, r) -> add_report b ~tag:(" owner=" ^ node) r
      | Unowned sw -> Printf.bprintf b "%s unowned\n" sw)
    shards;
  Buffer.contents b
