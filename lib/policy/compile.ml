module M = Openflow.Of_match
module A = Openflow.Action

type rule = { rmatch : M.t; atoms : Ir.atom list }
type classifier = rule list

exception Too_big of string

(* Size guards: compilation must terminate with a clean error on
   adversarial input rather than loop or exhaust memory. The limits are
   fixed constants so compilation stays deterministic. *)
let max_rules = 200_000
let max_pairs = 4_000_000

let check_rules n =
  if n > max_rules then
    raise (Too_big (Fmt.str "classifier exceeds %d rules" max_rules))

let too_many_pairs () =
  raise (Too_big (Fmt.str "cross-product exceeds %d rule pairs" max_pairs))

let check_pairs a b = if a * b > max_pairs then too_many_pairs ()

module MTbl = Hashtbl.Make (struct
  type t = M.t

  let equal = M.equal
  let hash = M.hash
end)

(* Deduplicate exactly-equal matches keeping the first occurrence: a
   later row with an identical match is fully shadowed, so dropping it
   preserves first-match semantics. O(n) and deterministic. *)
let dedup key rows =
  let seen = MTbl.create (List.length rows) in
  List.filter
    (fun r ->
      let m = key r in
      if MTbl.mem seen m then false
      else (
        MTbl.add seen m ();
        true))
    rows

(* ------------------------------------------------------------------ *)
(* Predicates → total boolean classifiers                             *)
(* ------------------------------------------------------------------ *)

type brule = { bmatch : M.t; verdict : bool }

let cross_bool f ca cb =
  check_pairs (List.length ca) (List.length cb);
  let rows =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            match M.intersect a.bmatch b.bmatch with
            | Some m -> Some { bmatch = m; verdict = f a.verdict b.verdict }
            | None -> None)
          cb)
      ca
  in
  check_rules (List.length rows);
  rows

let bmatch r = r.bmatch

let rec pred_compile (p : Ir.pred) : brule list =
  match p with
  | True -> [ { bmatch = M.any; verdict = true } ]
  | False -> [ { bmatch = M.any; verdict = false } ]
  | Test m ->
      if M.equal m M.any then [ { bmatch = M.any; verdict = true } ]
      else
        [
          { bmatch = m; verdict = true }; { bmatch = M.any; verdict = false };
        ]
  | Not a ->
      List.map (fun r -> { r with verdict = not r.verdict }) (pred_compile a)
  | And (a, b) -> dedup bmatch (cross_bool ( && ) (pred_compile a) (pred_compile b))
  | Or (a, b) -> dedup bmatch (cross_bool ( || ) (pred_compile a) (pred_compile b))

(* ------------------------------------------------------------------ *)
(* Pre-image of a match under a rewrite (the seq construction)        *)
(* ------------------------------------------------------------------ *)

(* [inv_apply mods m] is the match hit by exactly the packets whose
   image under [mods] hits [m] — [None] when that set is empty. For a
   field the rewrite sets to [v]: a constraint on it is either already
   satisfied by [v] (drop the constraint) or unsatisfiable. Unmodified
   fields keep their constraint. *)
let inv_field (set : 'v option) (want : 'v option) :
    [ `Keep | `Drop | `Unsat ] =
  match (set, want) with
  | None, _ -> `Keep
  | Some _, None -> `Drop
  | Some v, Some c -> if Stdlib.compare v c = 0 then `Drop else `Unsat

let inv_prefix (set : Packet.Ipv4_addr.t option)
    (want : Packet.Ipv4_addr.Prefix.t option) : [ `Keep | `Drop | `Unsat ] =
  match (set, want) with
  | None, _ -> `Keep
  | Some _, None -> `Drop
  | Some v, Some p ->
      if Packet.Ipv4_addr.Prefix.matches p v then `Drop else `Unsat

let inv_apply (mods : Ir.mods) (m : M.t) : M.t option =
  let exception Unsat in
  let fld set want = match inv_field set want with
    | `Keep -> want
    | `Drop -> None
    | `Unsat -> raise Unsat
  in
  let pfx set want = match inv_prefix set want with
    | `Keep -> want
    | `Drop -> None
    | `Unsat -> raise Unsat
  in
  match
    {
      M.in_port = m.M.in_port;
      dl_src = fld mods.m_dl_src m.dl_src;
      dl_dst = fld mods.m_dl_dst m.dl_dst;
      dl_vlan = fld mods.m_dl_vlan m.dl_vlan;
      dl_vlan_pcp = fld mods.m_dl_vlan_pcp m.dl_vlan_pcp;
      dl_type = m.dl_type;
      nw_src = pfx mods.m_nw_src m.nw_src;
      nw_dst = pfx mods.m_nw_dst m.nw_dst;
      nw_proto = m.nw_proto;
      nw_tos = fld mods.m_nw_tos m.nw_tos;
      tp_src = fld mods.m_tp_src m.tp_src;
      tp_dst = fld mods.m_tp_dst m.tp_dst;
    }
  with
  | pre -> Some pre
  | exception Unsat -> None

(* ------------------------------------------------------------------ *)
(* Policies → total atom classifiers                                  *)
(* ------------------------------------------------------------------ *)

let rmatch r = r.rmatch

(* Classifier atom lists are always normalized, so an empty side leaves
   the other as it is. *)
let union_atoms a b =
  match (a, b) with [], x | x, [] -> x | _ -> Ir.union a b

(* ------------------------------------------------------------------ *)
(* Pruning pairwise scans by an exact-value key                       *)
(* ------------------------------------------------------------------ *)

(* Exact-value keys: two matches whose keys on one field differ are
   disjoint, and a match with a key is subsumed only by matches with
   the same key or none. [None] leaves the field open; a prefix shorter
   than /32 counts as open. *)
let key_fields : (M.t -> int option) array =
  let host = function
    | Some { Packet.Ipv4_addr.Prefix.base; bits = 32 } ->
        Some (Int32.to_int (Packet.Ipv4_addr.to_int32 base))
    | _ -> None
  in
  [|
    (fun m -> m.M.in_port);
    (fun m -> (m.M.dl_src :> int option));
    (fun m -> (m.M.dl_dst :> int option));
    (fun m -> m.M.dl_vlan);
    (fun m -> m.M.dl_vlan_pcp);
    (fun m -> m.M.dl_type);
    (fun m -> host m.M.nw_src);
    (fun m -> host m.M.nw_dst);
    (fun m -> m.M.nw_proto);
    (fun m -> m.M.nw_tos);
    (fun m -> m.M.tp_src);
    (fun m -> m.M.tp_dst);
  |]

module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

let no_key (_ : M.t) : int option = None

(* The key splitting [rules] into the most distinct values; [no_key]
   when none splits them in two. *)
let best_key (rules : classifier) =
  let best = ref no_key and most = ref 1 in
  Array.iter
    (fun key ->
      let seen = ITbl.create 16 in
      List.iter
        (fun r -> Option.iter (fun v -> ITbl.replace seen v ()) (key r.rmatch))
        rules;
      if ITbl.length seen > !most then (
        best := key;
        most := ITbl.length seen))
    key_fields;
  !best

(* Rows filed under one key: each key value's rows, and the rows that
   leave the key open, each list newest first. A match with key [v] can
   only overlap the rows filed under [v] and the open ones. *)
type 'a keyed = {
  key : M.t -> int option;
  by_value : 'a list ITbl.t;
  mutable open_rows : 'a list;
}

let keyed key = { key; by_value = ITbl.create 64; open_rows = [] }

let filed kx v = Option.value ~default:[] (ITbl.find_opt kx.by_value v)

let file kx m x =
  match kx.key m with
  | Some v -> ITbl.replace kx.by_value v (x :: filed kx v)
  | None -> kx.open_rows <- x :: kx.open_rows

(* Below this many row pairs, testing each pair beats choosing a key. *)
let index_min_pairs = 256

(* Rows in lexicographic (row of ca, row of cb) order; [M.intersect]
   rejects disjoint pairs without allocating. Each row of [ca] tests
   only the rows of [cb] its [key] (by default the one best splitting
   [cb]) leaves possible, merged back into [cb] order; the pair guard
   counts the pairs tested. *)
let cross_union ?key (ca : classifier) (cb : classifier) : classifier =
  let na = List.length ca and nb = List.length cb in
  let key =
    if na * nb < index_min_pairs then no_key
    else match key with Some k -> k | None -> best_key cb
  in
  let kx = keyed key in
  List.iteri (fun i b -> file kx b.rmatch (i, b)) cb;
  (* two lists in descending [cb] order, merged ascending onto acc *)
  let rec merge acc xs ys =
    match (xs, ys) with
    | [], l | l, [] -> List.rev_append (List.map snd l) acc
    | (i, x) :: xs', (j, _) :: _ when i > j -> merge (x :: acc) xs' ys
    | _, (_, y) :: ys' -> merge (y :: acc) xs ys'
  in
  let candidates a =
    match kx.key a.rmatch with
    | None -> cb
    | Some v -> merge [] (filed kx v) kx.open_rows
  in
  (* rows are deduplicated as they are made; [made] counts them all, as
     the size guard did before deduplication *)
  let seen = MTbl.create (na + nb) and rows = ref [] and made = ref 0 in
  let tested = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun (b : rule) ->
          incr tested;
          match M.intersect a.rmatch b.rmatch with
          | None -> ()
          | Some m ->
              incr made;
              if not (MTbl.mem seen m) then (
                MTbl.add seen m ();
                rows := { rmatch = m; atoms = union_atoms a.atoms b.atoms } :: !rows))
        (candidates a);
      if !tested > max_pairs then too_many_pairs ())
    ca;
  check_rules !made;
  List.rev !rows

(* The operands of a [Par] chain, left to right, however it nests. *)
let rec par_parts (p : Ir.t) acc =
  match p with Par (p, q) -> par_parts p (par_parts q acc) | p -> p :: acc

(* Cross-union the parts as a balanced tree rather than a left fold, so
   each row is rebuilt O(log n) times instead of O(n). The output is the
   fold's exactly: rows stay in lexicographic order over the parts'
   row indexes under any association, intersection and [Ir.union] are
   associative, and an intermediate dedup only drops rows whose
   descendants would be dropped later as duplicates of an earlier
   row's. *)
let rec cross_parts ~key parts lo hi =
  if hi - lo = 1 then parts.(lo)
  else
    let mid = (lo + hi) / 2 in
    cross_union ~key
      (cross_parts ~key parts lo mid)
      (cross_parts ~key parts mid hi)

let rec compile_exn (p : Ir.t) : classifier =
  match p with
  | Filter pr ->
      List.map
        (fun { bmatch; verdict } ->
          { rmatch = bmatch; atoms = (if verdict then [ Ir.atom_id ] else []) })
        (pred_compile pr)
  | Fwd port ->
      [ { rmatch = M.any; atoms = [ { Ir.mods = Ir.no_mods; out = Some port } ] } ]
  | Mod a -> (
      match Ir.mods_of_action a with
      | Some m ->
          [ { rmatch = M.any; atoms = [ { Ir.mods = m; out = None } ] } ]
      | None ->
          raise
            (Too_big (Fmt.str "Mod holds non-rewrite action %a" A.pp a)))
  | Par _ ->
      let parts = List.map compile_exn (par_parts p []) in
      (* one key for the whole chain, chosen over all its rows *)
      let key = best_key (List.concat parts) in
      let parts = Array.of_list parts in
      cross_parts ~key parts 0 (Array.length parts)
  | Ite (pr, p, q) ->
      let cp = compile_exn p and cq = compile_exn q in
      let rows =
        List.concat_map
          (fun { bmatch; verdict } ->
            let branch = if verdict then cp else cq in
            check_pairs 1 (List.length branch);
            List.filter_map
              (fun r ->
                match M.intersect bmatch r.rmatch with
                | Some m -> Some { rmatch = m; atoms = r.atoms }
                | None -> None)
              branch)
          (pred_compile pr)
      in
      check_rules (List.length rows);
      dedup rmatch rows
  | Seq (p, q) ->
      let cp = compile_exn p and cq = compile_exn q in
      let fragment { rmatch; atoms } =
        match atoms with
        | [] -> [ { rmatch; atoms = [] } ]
        | _ ->
            (* Per-atom classifiers over cq's pre-images, each total on
               rmatch's domain, cross-unioned together. *)
            let per_atom (a : Ir.atom) =
              List.filter_map
                (fun r2 ->
                  match inv_apply a.Ir.mods r2.rmatch with
                  | None -> None
                  | Some pre -> (
                      match M.intersect rmatch pre with
                      | None -> None
                      | Some m ->
                          Some
                            {
                              rmatch = m;
                              atoms = Ir.norm (List.map (Ir.compose a) r2.atoms);
                            }))
                cq
            in
            List.fold_left
              (fun acc a -> cross_union acc (per_atom a))
              (per_atom (List.hd atoms))
              (List.tl atoms)
      in
      let rows = List.concat_map fragment cp in
      check_rules (List.length rows);
      dedup rmatch rows

(* Full shadow elimination compares rule pairs (pruned by key, still
   O(n²) in the worst case); run it only on classifiers small enough
   for that to be cheap — the cutoff is a fixed constant so output
   stays deterministic. *)
let shadow_cutoff = 2000

let shadow_elim rules =
  if List.length rules > shadow_cutoff then rules
  else
    let kx = keyed (best_key rules) in
    let shadows r k = M.subsumes k.rmatch r.rmatch in
    List.filter
      (fun r ->
        let shadowed =
          List.exists (shadows r) kx.open_rows
          ||
          match kx.key r.rmatch with
          | Some v -> List.exists (shadows r) (filed kx v)
          | None -> false
        in
        if not shadowed then file kx r.rmatch r;
        not shadowed)
      rules

(* Forward redundancy: a rule may go when every later rule its packets
   could fall through to produces the same atoms — the seq/ite
   constructions generate many such rows (predicate-failure fragments
   that drop just like the catch-all below them). Processed back to
   front so removals compound; the trailing catch-all is always kept
   (it is what guarantees the fall-through exists). Only runs when the
   last rule is the catch-all — true of compiler output once
   shadow_elim has pruned everything behind the first [any] row. *)
let forward_elim rules =
  if List.length rules > shadow_cutoff then rules
  else
    match List.rev rules with
    | [] -> []
    | last :: rev_front ->
        if not (M.equal last.rmatch M.any) then rules
        else
          let kx = keyed (best_key rules) in
          file kx last.rmatch last;
          List.fold_left
            (fun tail r ->
              let agrees r' = M.disjoint r.rmatch r'.rmatch || r'.atoms = r.atoms in
              let redundant =
                match kx.key r.rmatch with
                | None -> List.for_all agrees tail
                | Some v ->
                    List.for_all agrees (filed kx v)
                    && List.for_all agrees kx.open_rows
              in
              if redundant then tail
              else (
                file kx r.rmatch r;
                r :: tail))
            [ last ] rev_front

let compile p =
  match Ir.well_formed p with
  | Error e -> Error e
  | Ok () -> (
      match forward_elim (shadow_elim (dedup rmatch (compile_exn p))) with
      | rules -> Ok rules
      | exception Too_big e -> Error e)

let rec classify (cls : classifier) (h : Packet.Headers.t) =
  match cls with
  | [] -> []
  | r :: rest -> if M.matches r.rmatch h then r.atoms else classify rest h

(* ------------------------------------------------------------------ *)
(* Atom set → OpenFlow 1.0 action list                                *)
(* ------------------------------------------------------------------ *)

(* Field state during emission is represented as the Set_* action that
   put the field there ([None] = still at its original value). The pin
   is the Set action that restores the original from the rule's match,
   when the match determines it (exact field, or /32 for the nw
   addresses). *)
type fdesc = {
  fname : string;
  of_mods : Ir.mods -> A.t option;
  of_pin : M.t -> A.t option;
}

let fdescs : fdesc list =
  let host_pin p =
    match p with
    | Some { Packet.Ipv4_addr.Prefix.base; bits = 32 } -> Some base
    | _ -> None
  in
  [
    {
      fname = "dl_src";
      of_mods = (fun m -> Option.map (fun v -> A.Set_dl_src v) m.Ir.m_dl_src);
      of_pin = (fun m -> Option.map (fun v -> A.Set_dl_src v) m.M.dl_src);
    };
    {
      fname = "dl_dst";
      of_mods = (fun m -> Option.map (fun v -> A.Set_dl_dst v) m.Ir.m_dl_dst);
      of_pin = (fun m -> Option.map (fun v -> A.Set_dl_dst v) m.M.dl_dst);
    };
    {
      fname = "dl_vlan";
      of_mods = (fun m -> Option.map (fun v -> A.Set_vlan v) m.Ir.m_dl_vlan);
      of_pin = (fun m -> Option.map (fun v -> A.Set_vlan v) m.M.dl_vlan);
    };
    {
      fname = "dl_vlan_pcp";
      of_mods =
        (fun m -> Option.map (fun v -> A.Set_vlan_pcp v) m.Ir.m_dl_vlan_pcp);
      of_pin =
        (fun m -> Option.map (fun v -> A.Set_vlan_pcp v) m.M.dl_vlan_pcp);
    };
    {
      fname = "nw_src";
      of_mods = (fun m -> Option.map (fun v -> A.Set_nw_src v) m.Ir.m_nw_src);
      of_pin =
        (fun m -> Option.map (fun v -> A.Set_nw_src v) (host_pin m.M.nw_src));
    };
    {
      fname = "nw_dst";
      of_mods = (fun m -> Option.map (fun v -> A.Set_nw_dst v) m.Ir.m_nw_dst);
      of_pin =
        (fun m -> Option.map (fun v -> A.Set_nw_dst v) (host_pin m.M.nw_dst));
    };
    {
      fname = "nw_tos";
      of_mods = (fun m -> Option.map (fun v -> A.Set_nw_tos v) m.Ir.m_nw_tos);
      of_pin = (fun m -> Option.map (fun v -> A.Set_nw_tos v) m.M.nw_tos);
    };
    {
      fname = "tp_src";
      of_mods = (fun m -> Option.map (fun v -> A.Set_tp_src v) m.Ir.m_tp_src);
      of_pin = (fun m -> Option.map (fun v -> A.Set_tp_src v) m.M.tp_src);
    };
    {
      fname = "tp_dst";
      of_mods = (fun m -> Option.map (fun v -> A.Set_tp_dst v) m.Ir.m_tp_dst);
      of_pin = (fun m -> Option.map (fun v -> A.Set_tp_dst v) m.M.tp_dst);
    };
  ]

let emit ~rmatch atoms =
  let outs =
    List.filter (fun (a : Ir.atom) -> a.out <> None) atoms
    |> List.sort (fun (a : Ir.atom) b ->
           match
             Stdlib.compare (Ir.mods_count a.mods) (Ir.mods_count b.mods)
           with
           | 0 -> Stdlib.compare a b
           | c -> c)
  in
  let exception Unreal of string in
  let state = Array.make (List.length fdescs) None in
  let acts = ref [] in
  let step (a : Ir.atom) =
    List.iteri
      (fun i fd ->
        (* Both sides normalized through the pin: a field at its
           original pinned value is the same as one Set to it. *)
        let desired =
          match fd.of_mods a.mods with None -> fd.of_pin rmatch | d -> d
        in
        let current =
          match state.(i) with None -> fd.of_pin rmatch | c -> c
        in
        match (desired, current) with
        | None, None -> ()
        | Some d, Some c when A.equal d c -> ()
        | Some d, _ ->
            acts := d :: !acts;
            state.(i) <- Some d
        | None, Some _ ->
            raise
              (Unreal
                 (Fmt.str
                    "atom set needs the original %s restored between \
                     outputs, but the match does not pin it"
                    fd.fname)))
      fdescs;
    match a.out with
    | Some port -> acts := A.Output port :: !acts
    | None -> assert false
  in
  match List.iter step outs with
  | () -> Ok (List.rev !acts)
  | exception Unreal e -> Error e

(* ------------------------------------------------------------------ *)
(* Named, prioritized flow rules                                      *)
(* ------------------------------------------------------------------ *)

type flow_rule = {
  name : string;
  of_match : M.t;
  priority : int;
  actions : A.t list;
  atoms : Ir.atom list;
}

let priority_base = 50_000
let priority_floor = 33_000

(* Rules are content-named so an unchanged rule keeps its identity (and
   its flow file) across recompiles; priority deliberately stays out of
   the hash so reprioritized-but-unchanged rules are still "the same"
   to the differ. *)
let rule_name ~of_match ~actions =
  let content =
    String.concat ";"
      (List.map (fun (k, v) -> k ^ "=" ^ v) (M.to_fields of_match))
    ^ "/"
    ^ String.concat ";"
        (List.map (fun (k, v) -> k ^ "=" ^ v) (A.to_fields actions))
  in
  "pol_" ^ String.sub (Digest.to_hex (Digest.string content)) 0 16

let priorities n =
  let band = priority_base - priority_floor in
  if n > band then
    Error (Fmt.str "policy compiles to %d rules; at most %d installable" n band)
  else
    let gap = max 1 (min 16 (band / (n + 1))) in
    Ok (List.init n (fun i -> priority_base - ((i + 1) * gap)))

let to_flows p =
  match compile p with
  | Error e -> Error e
  | Ok cls -> (
      let emitted =
        List.map
          (fun r ->
            match emit ~rmatch:r.rmatch r.atoms with
            | Ok actions -> Ok (r, actions)
            | Error e ->
                Error
                  (Fmt.str "unrealizable rule [%a]: %s" M.pp r.rmatch e))
          cls
      in
      match
        List.fold_right
          (fun x acc ->
            match (x, acc) with
            | Ok r, Ok rs -> Ok (r :: rs)
            | Error e, _ | _, Error e -> Error e)
          emitted (Ok [])
      with
      | Error e -> Error e
      | Ok rules -> (
          match priorities (List.length rules) with
          | Error e -> Error e
          | Ok prios ->
              Ok
                (List.map2
                   (fun (r, actions) priority ->
                     {
                       name = rule_name ~of_match:r.rmatch ~actions;
                       of_match = r.rmatch;
                       priority;
                       actions;
                       atoms = r.atoms;
                     })
                   rules prios)))

let render rules =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string buf r.name;
      Buffer.add_string buf (Fmt.str " prio=%d" r.priority);
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Fmt.str " %s=%s" k v))
        (M.to_fields r.of_match);
      Buffer.add_string buf " ->";
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Fmt.str " %s=%s" k v))
        (A.to_fields r.actions);
      Buffer.add_char buf '\n')
    rules;
  Buffer.contents buf
