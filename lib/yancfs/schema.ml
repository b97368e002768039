(* The yanc tree (paper §3.1, Figures 2 and 3), declared once.

   "Directories and files contain semantic information. Each directory
   which contains a list of objects automatically creates an object of
   the appropriate type on a mkdir()."

   Every node kind under a yanc root (/net, or a view directory, which
   is a yanc root again) is one [node]: its name or name pattern, the
   children a mkdir gives it, whether a plain rmdir takes it whole, the
   symlinks it holds and the kind each must name, and, for a record,
   its field files in the order a writer commits them. The other
   descriptions of the tree derive from these values: Layout's paths,
   [attach]'s three Fs policies, the codecs' field sets, fsck's list of
   a switch's children, shard routing and [yancctl schema]'s
   rendering (a generated Figure 3). The module has no interface file: its
   declarations are its interface, and each name is spelled here
   only. *)

module Path = Vfs.Path

(* --- file names --------------------------------------------------------------- *)

(* The switch attributes read by name; a handshake writes all of
   [switch]'s fields in their order. [status] is the driver's
   connection state, written on its own. *)
let id = "id"

let protocol = "protocol"

let status = "status"

(* A port. [config.port_down] is the administrator's (the driver only
   gives a new port one); [peer] is topology's symlink to the port at
   the far end of the link. *)
let hw_addr = "hw_addr"

let port_label = "name"

let speed = "speed"

let state_link_down = "state.link_down"

let config_port_down = "config.port_down"

let peer = "peer"

(* A host, and its symlink to the port it hangs off. *)
let mac = "mac"

let ip = "ip"

let attached_to = "attached_to"

(* A flow (paper §3.4): one file per match field and per action, named
   under these prefixes, then the scalars, [version] last: the commit
   point. [error] is the programming driver's verdict. *)
let match_prefix = "match."

let action_prefix = "action."

let priority = "priority"

let idle_timeout = "idle_timeout"

let hard_timeout = "hard_timeout"

let cookie = "cookie"

let buffer_id = "buffer_id"

let version = "version"

let error = "error"

(* The flow counters read by name; the driver writes all of
   [flow_counters]' fields in their order. *)
let packets = "packets"

let bytes = "bytes"

(* A packet-in event (paper §3.5); a packet-out request reuses these. *)
let in_port = "in_port"

let reason = "reason"

let total_len = "total_len"

let data = "data"

(* --- node kinds --------------------------------------------------------------- *)

(* How a node's name is made: fixed; a number after the node's [name]
   ([port_3], [sw7], a spool's [12]); or any name, [name] being its
   placeholder. Classification takes any name where a pattern stands,
   as a listing shows it. *)
type naming = Fixed | Numbered | Any

type node = {
  kind : string;  (** for print and tests: code tells nodes apart by [==] *)
  name : string;
  naming : naming;
  made : bool;  (** made with its parent: the mkdir policy *)
  removable : bool;  (** a plain rmdir takes it whole: the rmdir policy *)
  fields : string list;
      (** a record's files, in the order its writer commits them; a name
          ending in '.' stands for the family of names under it *)
  commit : string option;  (** the record's commit file, its last field *)
  state : string list;  (** files other writers keep beside the record *)
  links : (string * target) list;
      (** a symlink it holds, and the kind its target must be *)
  children : node list;
      (** fixed names first; a last [Any] leaf is the kind of every
          other name in it, and of anything below that *)
  makes : string list;  (** the names of the [made] children *)
  views : bool;  (** each entry is a yanc root again *)
}

(* A port's [peer] names a port: [Same] keeps the tree acyclic, so
   that [=] on a node still returns. *)
and target = Same | Kind of node

let node ?(naming = Fixed) ?(made = false) ?(removable = false) ?(fields = [])
    ?commit ?(state = []) ?(links = []) ?(children = []) ?(views = false) ~kind
    name =
  { kind; name; naming; made; removable; fields; commit; state; links; children;
    views; makes = List.filter_map (fun c -> if c.made then Some c.name else None) children }

(* A record's attribute: any other name in it. *)
let attr kind = node ~naming:Any ~kind "<file>"

let switch_attr = attr "switch_attr"

let flow_attr = attr "flow_attr"

let port_attr = attr "port_attr"

let flow_counters =
  node ~made:true ~fields:[ packets; bytes; "duration" ] ~children:[ flow_attr ]
    ~kind:"flow_attr" "counters"

let flow =
  node ~naming:Any ~removable:true
    ~fields:
      [ match_prefix; action_prefix; priority; idle_timeout; hard_timeout; cookie;
        buffer_id; version ]
    ~commit:version ~state:[ error ] ~children:[ flow_counters; flow_attr ]
    ~kind:"flow" "<flow>"

let flows = node ~made:true ~children:[ flow ] ~kind:"flows_dir" "flows"

(* A port's counters are written whole, as one row in this order. *)
let port_counters =
  node ~made:true
    ~fields:[ "rx_packets"; "tx_packets"; "rx_bytes"; "tx_bytes"; "rx_dropped"; "tx_dropped" ]
    ~children:[ port_attr ] ~kind:"port_attr" "counters"

let port =
  node ~naming:Numbered ~removable:true
    ~fields:[ hw_addr; port_label; speed; state_link_down; config_port_down ]
    ~links:[ peer, Same ] ~children:[ port_counters; port_attr ] ~kind:"port" "port_"

let host =
  node ~naming:Any ~removable:true ~fields:[ mac; ip ] ~links:[ attached_to, Kind port ]
    ~children:[ attr "host_attr" ] ~kind:"host" "<host>"

let ports = node ~made:true ~children:[ port ] ~kind:"ports_dir" "ports"

let event =
  node ~naming:Numbered ~removable:true
    ~fields:[ in_port; reason; buffer_id; total_len; data ]
    ~children:[ attr "event_attr" ] ~kind:"event" ""

let event_buffer =
  node ~naming:Any ~removable:true ~children:[ event ] ~kind:"event_buffer" "<app>"

let events = node ~made:true ~children:[ event_buffer ] ~kind:"events_dir" "events"

let request =
  node ~naming:Numbered ~removable:true ~fields:[ buffer_id; in_port; action_prefix; data ]
    ~children:[ attr "request_attr" ] ~kind:"request" ""

let packet_out = node ~made:true ~children:[ request ] ~kind:"packet_out" "packet_out"

let switch =
  node ~naming:Numbered ~removable:true
    ~fields:[ id; protocol; "num_buffers"; "num_tables"; "capabilities"; "actions" ]
    ~state:[ status ]
    ~children:
      [ node ~made:true ~children:[ switch_attr ] ~kind:"switch_counters" "counters";
        events; flows; packet_out; ports; switch_attr ]
    ~kind:"switch" "sw"

let hosts = node ~made:true ~children:[ host ] ~kind:"hosts_dir" "hosts"

let switches = node ~made:true ~children:[ switch ] ~kind:"switches_dir" "switches"

let views = node ~made:true ~views:true ~kind:"views_dir" "views"

(* A plain rmdir of a view directory takes the view whole. *)
let root =
  node ~naming:Any ~removable:true ~children:[ hosts; switches; views ] ~kind:"root"
    "<view>"

(* The kind of every path outside a yanc root. *)
let not_yanc = node ~kind:"not_yanc" ""

(* --- names ---------------------------------------------------------------------- *)

let numbered node n = node.name ^ n

(* The lookups below run per file of every record read: plain
   recursion, so that none allocates (String.starts_with makes a
   closure per call). *)
let rec same_from prefix name i =
  i >= String.length prefix
  || (Char.equal prefix.[i] name.[i] && same_from prefix name (i + 1))

(* [name] is in the family [prefix] ([match.] holds [match.tp_dst]). *)
let in_family prefix name =
  String.length name > String.length prefix && same_from prefix name 0

(* The number text of a [Numbered] name, what follows the prefix; [""]
   when the name does not carry the prefix. *)
let number node name =
  let p = String.length node.name in
  if in_family node.name name then String.sub name p (String.length name - p) else ""

let is_family f = String.length f > 0 && Char.equal f.[String.length f - 1] '.'

let rec mem_field name = function
  | [] -> false
  | f :: rest ->
    String.equal f name
    || (is_family f && in_family f name)
    || mem_field name rest

(* A record's file, or a member of one of its families. *)
let is_field node name = mem_field name node.fields

(* --- classification ------------------------------------------------------------ *)

let rec child c = function
  | [] -> not_yanc
  | n :: rest -> (
    match n.naming with
    | Fixed -> if String.equal n.name c then n else child c rest
    | Numbered | Any -> n)

(* Walk the components below a yanc root; a view's entry is a root
   again, so deeply stacked views cost only the path length. The walk
   allocates nothing: the Fs policies classify on every mkdir and
   rmdir. *)
let rec walk node = function
  | [] -> node
  | c :: rest ->
    if node.views then walk root rest
    else match node.children with [] -> node | children -> walk (child c children) rest

let classify ~root:base path =
  match Path.strip_prefix ~prefix:base path with
  | None -> not_yanc
  | Some rel -> walk root (Path.components rel)

let rec bound_to target node bound comps =
  if node == target then bound
  else
    match comps, node.children with
    | c :: rest, (_ :: _ as children) when not node.views ->
      let n = child c children in
      bound_to target n (match n.naming with Fixed -> bound | Numbered | Any -> c :: bound) rest
    | _ -> []

(* The names [path]'s patterns matched on its walk from the yanc root
   [root] down to [target] (a node below a pattern), innermost first,
   whatever lies below [target]; [[]] when the walk does not reach
   [target]. Views are not looked through: a view's objects are not the
   master's. *)
let walk_to ~root:base path target =
  match Path.strip_prefix ~prefix:base path with
  | None -> []
  | Some rel -> bound_to target root [] (Path.components rel)

(* --- the Fs policies ----------------------------------------------------------- *)

(* A link's target must classify as the node [kind]. Targets are
   resolved like the VFS does: absolute, or relative to the link's
   directory. *)
let target_is ~root ~dir ~target kind =
  match Path.of_string target with
  | Error _ -> false
  | Ok tpath ->
    let resolved =
      if String.length target > 0 && target.[0] = '/' then tpath
      else Path.of_components (Path.components dir @ Path.components tpath)
    in
    classify ~root resolved == kind

let attach fs ~root =
  Vfs.Fs.set_rmdir_policy fs (fun path -> (classify ~root path).removable);
  Vfs.Fs.set_symlink_policy fs (fun path ~target ->
      match Path.parent path, Path.basename path with
      | Some dir, Some link -> (
        let holder = classify ~root dir in
        match List.assoc_opt link holder.links with
        | Some Same -> target_is ~root ~dir ~target holder
        | Some (Kind kind) -> target_is ~root ~dir ~target kind
        | None -> true)
      | _ -> true);
  Vfs.Fs.set_mkdir_policy fs (fun path -> (classify ~root path).makes)
