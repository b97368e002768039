module Of_match = Openflow.Of_match
module Packed = Of_match.Packed

(* --- datapath lookup counters ------------------------------------------------ *)

module Cost = struct
  type t = {
    mutable lookups : int;
    mutable entries_examined : int;
    mutable subtables_visited : int;
    mutable micro_hits : int;
    mutable micro_misses : int;
    mutable invalidations : int;
  }

  let create () =
    { lookups = 0; entries_examined = 0; subtables_visited = 0;
      micro_hits = 0; micro_misses = 0; invalidations = 0 }

  let lookups t = t.lookups

  let entries_examined t = t.entries_examined

  let subtables_visited t = t.subtables_visited

  let micro_hits t = t.micro_hits

  let micro_misses t = t.micro_misses

  let invalidations t = t.invalidations

  let absorb ~into c =
    into.lookups <- into.lookups + c.lookups;
    into.entries_examined <- into.entries_examined + c.entries_examined;
    into.subtables_visited <- into.subtables_visited + c.subtables_visited;
    into.micro_hits <- into.micro_hits + c.micro_hits;
    into.micro_misses <- into.micro_misses + c.micro_misses;
    into.invalidations <- into.invalidations + c.invalidations

  let reset t =
    t.lookups <- 0;
    t.entries_examined <- 0;
    t.subtables_visited <- 0;
    t.micro_hits <- 0;
    t.micro_misses <- 0;
    t.invalidations <- 0
end

type strategy = Linear | Classifier

type entry = {
  of_match : Of_match.t;
  priority : int;
  seq : int;
  actions : Openflow.Action.t list;
  cookie : int64;
  idle_timeout : int;
  hard_timeout : int;
  notify_removal : bool;
  install_time : float;
  mutable last_hit : float;
  mutable packets : int64;
  mutable bytes : int64;
}

(* One tuple-space subtable: every entry in it shares the same wildcard
   mask, so membership is a single hash probe on the masked packet.
   A bucket holds the entries with identical packed (mask, value) — the
   same match region at different priorities — best-first (priority
   descending, then install order). *)
type subtable = {
  s_mask : Packed.t;
  buckets : entry list Packed.Tbl.t; (* keyed by the rule's packed value *)
  mutable s_max_priority : int;
  mutable s_count : int;
}

type classifier = {
  mutable subtables : subtable list; (* sorted by s_max_priority, descending *)
  by_mask : subtable Packed.Tbl.t;
  (* The microflow cache: packed packet headers -> (generation, winner).
     Any mutation that could change an answer bumps [generation], which
     orphans every cached binding at once; stale bindings are discarded
     lazily when probed. *)
  micro : (int * entry) Packed.Tbl.t;
  mutable generation : int;
}

(* Bound the microflow cache; reached, it is simply emptied (a coarse
   but obviously-correct eviction — steady state refills it in one
   probe per flow). *)
let micro_cap = 8192

type store =
  | Linear_s of { mutable entries : entry list }
  | Classifier_s of classifier

type t = {
  strategy : strategy;
  cost : Cost.t;
  mutable next_seq : int;
  store : store;
  (* Upper bound on entries carrying an idle/hard timeout. When zero the
     per-step expiry sweep has nothing to reap and is skipped — without
     this, every agent step pays a full-table scan even on tables where
     no rule can ever expire. *)
  mutable timed : int;
}

let create ?(strategy = Linear) ?cost () =
  let cost = match cost with Some c -> c | None -> Cost.create () in
  let store =
    match strategy with
    | Linear -> Linear_s { entries = [] }
    | Classifier ->
      Classifier_s
        { subtables = []; by_mask = Packed.Tbl.create 16;
          micro = Packed.Tbl.create 256; generation = 0 }
  in
  { strategy; cost; next_seq = 0; store; timed = 0 }

let strategy t = t.strategy

let timed t = t.timed

let cost t = t.cost

(* Descending priority; equal priorities keep FIFO install order (the
   new entry carries the largest [seq], and goes after its peers). *)
let insert_sorted entry l =
  let rec go = function
    | [] -> [ entry ]
    | e :: rest when e.priority < entry.priority -> entry :: e :: rest
    | e :: rest -> e :: go rest
  in
  go l

let same_rule a (m, p) = Of_match.equal a.of_match m && a.priority = p

(* Priority first, install order second — the total order every
   strategy resolves ties with. *)
let better a b =
  a.priority > b.priority || (a.priority = b.priority && a.seq < b.seq)

let by_rank a b =
  match compare b.priority a.priority with 0 -> compare a.seq b.seq | c -> c

let expired e ~now =
  (e.hard_timeout > 0 && now -. e.install_time >= float_of_int e.hard_timeout)
  || (e.idle_timeout > 0 && now -. e.last_hit >= float_of_int e.idle_timeout)

(* --- classifier internals ---------------------------------------------------- *)

let invalidate cls (cost : Cost.t) =
  cls.generation <- cls.generation + 1;
  cost.invalidations <- cost.invalidations + 1

let resort cls =
  cls.subtables <-
    List.sort (fun a b -> compare b.s_max_priority a.s_max_priority)
      cls.subtables

let subtable_max st =
  Packed.Tbl.fold
    (fun _ es acc -> match es with e :: _ -> max acc e.priority | [] -> acc)
    st.buckets min_int

let cls_add cls cost entry =
  let r = Of_match.pack_rule entry.of_match in
  let st =
    match Packed.Tbl.find_opt cls.by_mask r.Packed.mask with
    | Some st -> st
    | None ->
      let st =
        { s_mask = r.Packed.mask; buckets = Packed.Tbl.create 16;
          s_max_priority = min_int; s_count = 0 }
      in
      Packed.Tbl.replace cls.by_mask r.Packed.mask st;
      cls.subtables <- st :: cls.subtables;
      st
  in
  let old =
    Option.value ~default:[] (Packed.Tbl.find_opt st.buckets r.Packed.value)
  in
  (* OpenFlow ADD: an entry with identical match and priority is
     replaced (it had the same priority, so the max is unaffected). *)
  let kept =
    List.filter
      (fun e -> not (same_rule e (entry.of_match, entry.priority)))
      old
  in
  st.s_count <- st.s_count + 1 + List.length kept - List.length old;
  Packed.Tbl.replace st.buckets r.Packed.value (insert_sorted entry kept);
  st.s_max_priority <- max st.s_max_priority entry.priority;
  resort cls;
  invalidate cls cost

(* Remove every entry satisfying [pred]; empty subtables are dropped and
   max priorities refreshed so pruning stays tight. *)
let cls_remove_if cls pred =
  let removed = ref [] in
  List.iter
    (fun st ->
      let doomed =
        Packed.Tbl.fold
          (fun k es acc -> if List.exists pred es then (k, es) :: acc else acc)
          st.buckets []
      in
      List.iter
        (fun (k, es) ->
          let drop, keep = List.partition pred es in
          removed := drop @ !removed;
          st.s_count <- st.s_count - List.length drop;
          if keep = [] then Packed.Tbl.remove st.buckets k
          else Packed.Tbl.replace st.buckets k keep)
        doomed)
    cls.subtables;
  if !removed <> [] then begin
    cls.subtables <-
      List.filter
        (fun st ->
          if st.s_count = 0 then begin
            Packed.Tbl.remove cls.by_mask st.s_mask;
            false
          end
          else begin
            st.s_max_priority <- subtable_max st;
            true
          end)
        cls.subtables;
    resort cls
  end;
  !removed

(* Strict delete: the rule's identity (match, priority) pins the one
   subtable (by mask) and bucket (by value) that can hold it, so removal
   is O(bucket), not a scan of the whole table. The subtable's max
   priority is deliberately left as an upper bound — search pruning only
   needs a bound to stay sound, and the wildcard-delete and expiry
   sweeps retighten it. *)
let cls_remove_strict cls ~of_match ~priority =
  let r = Of_match.pack_rule of_match in
  match Packed.Tbl.find_opt cls.by_mask r.Packed.mask with
  | None -> []
  | Some st -> (
    match Packed.Tbl.find_opt st.buckets r.Packed.value with
    | None -> []
    | Some es ->
      let doomed e =
        Of_match.equal e.of_match of_match
        && (match priority with Some p -> e.priority = p | None -> true)
      in
      let drop, keep = List.partition doomed es in
      if drop = [] then []
      else begin
        st.s_count <- st.s_count - List.length drop;
        if keep = [] then Packed.Tbl.remove st.buckets r.Packed.value
        else Packed.Tbl.replace st.buckets r.Packed.value keep;
        if st.s_count = 0 then begin
          Packed.Tbl.remove cls.by_mask st.s_mask;
          cls.subtables <- List.filter (fun s -> s != st) cls.subtables
        end;
        drop
      end)

exception Pruned

let cls_search cls (cost : Cost.t) ~now key =
  let best = ref None in
  (try
     List.iter
       (fun st ->
         (* Subtables are sorted by max priority: once below the current
            winner, no later subtable can beat it (equal max priority
            can still win the install-order tie-break, so keep going). *)
         (match !best with
         | Some b when st.s_max_priority < b.priority -> raise Pruned
         | _ -> ());
         cost.subtables_visited <- cost.subtables_visited + 1;
         match Packed.Tbl.find_opt st.buckets (Packed.logand key st.s_mask) with
         | None -> ()
         | Some es ->
           (* Everything in the bucket matches the packet; the first
              live entry is the bucket's best. *)
           let rec first = function
             | [] -> None
             | e :: rest ->
               cost.entries_examined <- cost.entries_examined + 1;
               if expired e ~now then first rest else Some e
           in
           (match first es with
           | None -> ()
           | Some e -> (
             match !best with
             | Some b when not (better e b) -> ()
             | _ -> best := Some e)))
       cls.subtables
   with Pruned -> ());
  !best

let cls_lookup cls (cost : Cost.t) ~now key =
  match Packed.Tbl.find_opt cls.micro key with
  | Some (g, e) when g = cls.generation && not (expired e ~now) ->
    cost.micro_hits <- cost.micro_hits + 1;
    Some e
  | probe ->
    if probe <> None then Packed.Tbl.remove cls.micro key;
    cost.micro_misses <- cost.micro_misses + 1;
    let won = cls_search cls cost ~now key in
    (match won with
    | Some e ->
      if Packed.Tbl.length cls.micro >= micro_cap then
        Packed.Tbl.reset cls.micro;
      Packed.Tbl.replace cls.micro key (cls.generation, e)
    | None -> ());
    won

(* --- table operations -------------------------------------------------------- *)

let add t ~now ~of_match ~priority ~actions ?(cookie = 0L) ?(idle_timeout = 0)
    ?(hard_timeout = 0) ?(notify_removal = false) () =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let entry =
    { of_match; priority; seq; actions; cookie; idle_timeout; hard_timeout;
      notify_removal; install_time = now; last_hit = now; packets = 0L;
      bytes = 0L }
  in
  if idle_timeout > 0 || hard_timeout > 0 then t.timed <- t.timed + 1;
  match t.store with
  | Linear_s s ->
    s.entries <-
      insert_sorted entry
        (List.filter (fun e -> not (same_rule e (of_match, priority))) s.entries)
  | Classifier_s cls -> cls_add cls t.cost entry

let modify t ~of_match ~actions =
  let count = ref 0 in
  let update e =
    if Of_match.equal e.of_match of_match then begin
      incr count;
      { e with actions }
    end
    else e
  in
  (match t.store with
  | Linear_s s -> s.entries <- List.map update s.entries
  | Classifier_s cls ->
    let r = Of_match.pack_rule of_match in
    (match Packed.Tbl.find_opt cls.by_mask r.Packed.mask with
    | None -> ()
    | Some st -> (
      match Packed.Tbl.find_opt st.buckets r.Packed.value with
      | None -> ()
      | Some es ->
        let es = List.map update es in
        if !count > 0 then Packed.Tbl.replace st.buckets r.Packed.value es));
    if !count > 0 then invalidate cls t.cost);
  !count

let has_timeout e = e.idle_timeout > 0 || e.hard_timeout > 0

let drop_timed t removed =
  if removed <> [] then
    t.timed <-
      max 0 (t.timed - List.length (List.filter has_timeout removed));
  removed

let delete ?(strict = false) ?priority t ~of_match =
  let doomed e =
    if strict then
      Of_match.equal e.of_match of_match
      && (match priority with Some p -> e.priority = p | None -> true)
    else Of_match.subsumes of_match e.of_match
  in
  drop_timed t
    (match t.store with
    | Linear_s s ->
      let removed, kept = List.partition doomed s.entries in
      s.entries <- kept;
      removed
    | Classifier_s cls ->
      let removed =
        if strict then cls_remove_strict cls ~of_match ~priority
        else cls_remove_if cls doomed
      in
      if removed <> [] then invalidate cls t.cost;
      removed)

(* Scan in (priority, install order); count every entry whose match we
   evaluate. Expired entries no longer match — they are skipped here and
   reaped by the next {!expire} sweep. *)
let linear_find (cost : Cost.t) ~now entries headers =
  let rec go = function
    | [] -> None
    | e :: rest ->
      cost.entries_examined <- cost.entries_examined + 1;
      if (not (expired e ~now)) && Of_match.matches e.of_match headers then
        Some e
      else go rest
  in
  go entries

let lookup t ~now headers =
  let cost = t.cost in
  cost.lookups <- cost.lookups + 1;
  match t.store with
  | Linear_s s -> linear_find cost ~now s.entries headers
  | Classifier_s cls -> cls_lookup cls cost ~now (Packed.of_headers headers)

let hit entry ~now ~bytes =
  entry.last_hit <- now;
  entry.packets <- Int64.add entry.packets 1L;
  entry.bytes <- Int64.add entry.bytes (Int64.of_int bytes)

let expire t ~now =
  if t.timed = 0 then []
  else
    let dead e = expired e ~now in
    drop_timed t
      (match t.store with
      | Linear_s s ->
        let removed, kept = List.partition dead s.entries in
        s.entries <- kept;
        removed
      | Classifier_s cls ->
        let removed = cls_remove_if cls dead in
        if removed <> [] then invalidate cls t.cost;
        removed)

let entries t =
  let all =
    match t.store with
    | Linear_s s -> s.entries
    | Classifier_s cls ->
      List.concat_map
        (fun st -> Packed.Tbl.fold (fun _ es acc -> es @ acc) st.buckets [])
        cls.subtables
  in
  List.sort by_rank all

(* Lookup-side expiry means an entry can be dead before any [expire]
   sweep reaps it; consumers deciding what is "present on the switch"
   (stats replies feeding a resync diff) must see only live entries. *)
let live_entries t ~now = List.filter (fun e -> not (expired e ~now)) (entries t)

let is_expired = expired

let length t =
  match t.store with
  | Linear_s s -> List.length s.entries
  | Classifier_s cls ->
    List.fold_left (fun acc st -> acc + st.s_count) 0 cls.subtables
