(* The event-routing index: given a mutated path, find the watches that
   care in O(path depth + matches) instead of O(all watches).

   A single component trie holds the watches of every notifier sharing
   one file system, each anchored at the node of its watched path
   (mirroring the kernel's per-inode fsnotify mark lists, with recursive
   watches playing the role of fanotify subtree marks). Routing a
   mutation is one walk down the trie along the path's components — no
   path-string building:

   - at every strict ancestor above the parent, collect the anchored
     watches marked [recursive] (subtree marks see child events
     anywhere below);
   - at the parent's node, collect every anchored watch (directory
     watches report child events, recursive or not);
   - at the terminal node, collect every anchored watch (self events).

   [route_linear] is the retained reference implementation: the
   original full scan, kept so equivalence tests and the E14 bench can
   prove the index changes cost, not behaviour. *)

module Path = Vfs.Path

type 'a watch = {
  wd : int;
  path : Path.t;
  mask : int;
  recursive : bool;
  leaves : string list option;
  owner : 'a;
}

type 'a node = {
  mutable here : 'a watch list; (* watches anchored at this node *)
  children : (string, 'a node) Hashtbl.t;
}

type 'a t = { root : 'a node; mutable count : int }

let make_node () = { here = []; children = Hashtbl.create 4 }

let create () = { root = make_node (); count = 0 }

let count t = t.count

let node_of t path =
  List.fold_left
    (fun node c ->
      match Hashtbl.find_opt node.children c with
      | Some n -> n
      | None ->
        let n = make_node () in
        Hashtbl.add node.children c n;
        n)
    t.root (Path.components path)

let add t w =
  let node = node_of t w.path in
  node.here <- w :: node.here;
  t.count <- t.count + 1

let remove t w =
  let node = node_of t w.path in
  node.here <- List.filter (fun x -> x != w) node.here;
  t.count <- t.count - 1

let route t path =
  (* One trie walk, collecting childs (recursive at strict ancestors,
     everything at the parent) and selfs (everything at the terminal). *)
  let rec go node childs = function
    | [] -> (node.here, childs) (* the root itself has no parent *)
    | [ last ] -> (
      let childs = List.rev_append node.here childs in
      match Hashtbl.find_opt node.children last with
      | Some n -> (n.here, childs)
      | None -> ([], childs))
    | c :: rest -> (
      let childs =
        List.fold_left
          (fun acc w -> if w.recursive then w :: acc else acc)
          childs node.here
      in
      match Hashtbl.find_opt node.children c with
      | Some n -> go n childs rest
      | None -> ([], childs))
  in
  let selfs, childs = go t.root [] (Path.components path) in
  (selfs, childs, List.length selfs + List.length childs)

let route_linear watches path =
  let parent = Path.parent path in
  let visited = List.length watches in
  let selfs = List.filter (fun w -> Path.equal w.path path) watches in
  let childs =
    List.filter
      (fun w ->
        (not (Path.equal w.path path))
        && ((match parent with Some p -> Path.equal w.path p | None -> false)
           || (w.recursive && Path.is_prefix w.path path)))
      watches
  in
  (selfs, childs, visited)
