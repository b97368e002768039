(* Tests for the inotify-like notifier (paper §5.2): event semantics,
   masks-as-bitsets, coalescing, bounded drains, overflow clamping, the
   equivalence of the indexed routing backend with the retained linear
   reference, and the one dispatcher many notifiers share per file
   system. *)

module Fs = Vfs.Fs
module Path = Vfs.Path
module N = Fsnotify.Notifier
module E = Fsnotify.Event

let cred = Vfs.Cred.root

let p = Path.of_string_exn

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

(* A counter of the file system's registry, read from a snapshot so a
   missing name fails instead of reading 0. *)
let counter fs name =
  let snap = Telemetry.Registry.snapshot (Fs.registry fs) in
  match Telemetry.Registry.find snap name with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "no registry series %s" name

let kinds evs = List.map (fun (e : E.t) -> E.kind_to_string e.kind) evs

let strings evs = List.map (Format.asprintf "%a" E.pp) evs

let setup () =
  let fs = Fs.create () in
  let n = N.create fs in
  fs, n

let test_create_events () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/watched"));
  let wd = N.add_watch n (p "/watched") N.all in
  ok (Fs.mkdir fs ~cred (p "/watched/sub"));
  ok (Fs.write_file fs ~cred (p "/watched/f") "x");
  ok (Fs.symlink fs ~cred ~target:"/x" (p "/watched/l"));
  let evs = N.read_events n in
  Alcotest.(check (list string)) "created * 3 + modified"
    [ "created"; "created"; "modified"; "created" ]
    (kinds evs);
  List.iter (fun (e : E.t) -> Alcotest.(check int) "wd" wd e.wd) evs;
  Alcotest.(check (option string)) "name of first" (Some "sub")
    (match evs with e :: _ -> e.E.name | [] -> None)

let test_modify_and_delete () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ok (Fs.write_file fs ~cred (p "/d/f") "1");
  ignore (N.add_watch n (p "/d") N.all);
  ok (Fs.write_file fs ~cred (p "/d/f") "2");
  ok (Fs.unlink fs ~cred (p "/d/f"));
  (* truncate + write coalesce into one modified *)
  Alcotest.(check (list string)) "modify then delete"
    [ "modified"; "deleted" ]
    (kinds (N.read_events n))

let test_file_watch_self () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ok (Fs.write_file fs ~cred (p "/d/version") "0");
  ignore (N.add_watch n (p "/d/version") (N.mask [ E.Modified; E.Delete_self ]));
  ok (Fs.write_file fs ~cred (p "/d/version") "1");
  ok (Fs.write_file fs ~cred (p "/d/other") "x");
  ok (Fs.unlink fs ~cred (p "/d/version"));
  Alcotest.(check (list string)) "only the version file's events"
    [ "modified"; "delete_self" ]
    (kinds (N.read_events n))

let test_mask_filtering () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ignore (N.add_watch n (p "/d") (N.mask [ E.Created ]));
  ok (Fs.write_file fs ~cred (p "/d/f") "x");
  ok (Fs.unlink fs ~cred (p "/d/f"));
  Alcotest.(check (list string)) "only created" [ "created" ]
    (kinds (N.read_events n))

let test_move_events () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/a"));
  ok (Fs.mkdir fs ~cred (p "/b"));
  ok (Fs.write_file fs ~cred (p "/a/f") "x");
  ignore (N.add_watch n (p "/a") N.all);
  ignore (N.add_watch n (p "/b") N.all);
  ok (Fs.rename fs ~cred ~src:(p "/a/f") ~dst:(p "/b/g"));
  Alcotest.(check (list string)) "moved_from then moved_to"
    [ "moved_from"; "moved_to" ]
    (kinds (N.read_events n))

let test_recursive_watch () =
  let fs, n = setup () in
  ok (Fs.mkdir_p fs ~cred (p "/deep/a/b"));
  ignore (N.add_watch ~recursive:true n (p "/deep") N.all);
  ok (Fs.write_file fs ~cred (p "/deep/a/b/f") "x");
  let evs = N.read_events n in
  Alcotest.(check bool) "saw nested create" true
    (List.exists (fun (e : E.t) -> e.kind = E.Created) evs);
  Alcotest.(check bool) "full path reported" true
    (List.exists
       (fun (e : E.t) -> Path.to_string e.path = "/deep/a/b/f")
       evs)

let test_attrib_events () =
  let fs, n = setup () in
  ok (Fs.write_file fs ~cred (p "/f") "x");
  ignore (N.add_watch n (p "/f") N.all);
  ok (Fs.chmod fs ~cred (p "/f") 0o600);
  ok (Fs.setxattr fs ~cred (p "/f") ~name:"a" ~value:"b");
  Alcotest.(check (list string)) "attrib twice" [ "attrib"; "attrib" ]
    (kinds (N.read_events n))

let test_watch_future_path () =
  (* A watch on a path that does not exist yet becomes live when the
     object appears — drivers rely on this. *)
  let fs, n = setup () in
  ignore (N.add_watch n (p "/later") N.all);
  ok (Fs.mkdir fs ~cred (p "/later"));
  ok (Fs.write_file fs ~cred (p "/later/f") "x");
  let evs = N.read_events n in
  Alcotest.(check bool) "child create seen" true
    (List.exists (fun (e : E.t) -> e.E.name = Some "f") evs)

let test_rm_watch () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  let wd = N.add_watch n (p "/d") N.all in
  ok (Fs.write_file fs ~cred (p "/d/f1") "");
  N.rm_watch n wd;
  ok (Fs.write_file fs ~cred (p "/d/f2") "");
  let evs = N.read_events n in
  Alcotest.(check bool) "no f2 events" true
    (not (List.exists (fun (e : E.t) -> e.E.name = Some "f2") evs))

let test_queue_overflow () =
  let fs = Fs.create () in
  let n = N.create ~queue_limit:5 fs in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ignore (N.add_watch n (p "/d") N.all);
  for i = 1 to 20 do
    ok (Fs.create_file fs ~cred (p (Printf.sprintf "/d/f%d" i)))
  done;
  (* The queue is clamped at queue_limit, sentinel included: 4 real
     events plus the overflow marker; the other 16 are dropped and
     counted. *)
  Alcotest.(check int) "clamped at queue_limit" 5 (N.pending n);
  let evs = N.read_events n in
  Alcotest.(check int) "bounded" 5 (List.length evs);
  Alcotest.(check string) "overflow marker is last" "overflow"
    (E.kind_to_string (List.nth evs 4).E.kind);
  Alcotest.(check int) "dropped events counted" 16 (N.overflows n);
  Alcotest.(check int) "dropped events in cost model" 16
    (counter fs "fsnotify.overflows");
  (* after the sentinel is read, delivery resumes *)
  ok (Fs.create_file fs ~cred (p "/d/after"));
  Alcotest.(check (list string)) "resumes after drain" [ "created" ]
    (kinds (N.read_events n))

let test_close_detaches () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ignore (N.add_watch n (p "/d") N.all);
  N.close n;
  ok (Fs.write_file fs ~cred (p "/d/f") "");
  Alcotest.(check int) "nothing delivered" 0 (List.length (N.read_events n))

let test_two_notifiers_independent () =
  let fs = Fs.create () in
  let n1 = N.create fs in
  let n2 = N.create fs in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ignore (N.add_watch n1 (p "/d") N.all);
  ignore (N.add_watch n2 (p "/d") (N.mask [ E.Deleted ]));
  ok (Fs.write_file fs ~cred (p "/d/f") "");
  Alcotest.(check bool) "n1 sees create" true (N.pending n1 > 0);
  Alcotest.(check int) "n2 filtered" 0 (N.pending n2)

let test_read_events_charges_syscall () =
  let fs, n = setup () in
  let c0 = counter fs "vfs.crossings" in
  ignore (N.read_events n);
  Alcotest.(check int) "one crossing" 1 (counter fs "vfs.crossings" - c0)

(* --- coalescing --------------------------------------------------------- *)

let test_coalesce_repeated_writes () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ok (Fs.write_file fs ~cred (p "/d/f") "0");
  ignore (N.add_watch n (p "/d") N.all);
  for i = 1 to 5 do
    ok (Fs.write_file fs ~cred (p "/d/f") (string_of_int i))
  done;
  (* 5 writes = 10 Modified mutations, all back-to-back on one (wd,
     path): one queued event. *)
  Alcotest.(check (list string)) "one modified" [ "modified" ]
    (kinds (N.read_events n));
  Alcotest.(check int) "coalesced counter" 9 (N.coalesced n);
  Alcotest.(check int) "cost counter agrees" 9
    (counter fs "fsnotify.events_coalesced")

let test_coalesce_interleaving_boundary () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ok (Fs.write_file fs ~cred (p "/d/f1") "0");
  ok (Fs.write_file fs ~cred (p "/d/f2") "0");
  ignore (N.add_watch n (p "/d") N.all);
  ok (Fs.write_file fs ~cred (p "/d/f1") "1");
  ok (Fs.write_file fs ~cred (p "/d/f2") "1");
  ok (Fs.write_file fs ~cred (p "/d/f1") "2");
  ok (Fs.write_file fs ~cred (p "/d/f2") "2");
  (* interleaved paths never merge (only the truncate+write inside each
     write_file coalesces) *)
  let evs = N.read_events n in
  Alcotest.(check (list string)) "alternating modifies survive"
    [ "modified"; "modified"; "modified"; "modified" ]
    (kinds evs);
  Alcotest.(check (list (option string))) "per-file order"
    [ Some "f1"; Some "f2"; Some "f1"; Some "f2" ]
    (List.map (fun (e : E.t) -> e.name) evs)

let test_coalesce_drain_boundary () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ok (Fs.write_file fs ~cred (p "/d/f") "0");
  ignore (N.add_watch n (p "/d") N.all);
  ok (Fs.write_file fs ~cred (p "/d/f") "1");
  Alcotest.(check (list string)) "first write delivered" [ "modified" ]
    (kinds (N.read_events n));
  (* the queue was emptied: an identical write afterwards must NOT merge
     into the already-read event *)
  ok (Fs.write_file fs ~cred (p "/d/f") "2");
  Alcotest.(check (list string)) "second write delivered" [ "modified" ]
    (kinds (N.read_events n))

let test_coalesce_distinct_watches () =
  (* A self watch and a parent watch both report the same write; each
     event merges only with the queue tail, so the pair never collapses
     across watches (inotify behaves the same way). *)
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ok (Fs.write_file fs ~cred (p "/d/f") "0");
  let wd_dir = N.add_watch n (p "/d") N.all in
  let wd_file = N.add_watch n (p "/d/f") N.all in
  ok (Fs.write_file fs ~cred (p "/d/f") "1");
  (* truncate + write, each fanned out to both watches in ascending wd
     order: the alternating wds keep any pair from merging at the tail *)
  let evs = N.read_events n in
  Alcotest.(check (list string)) "both watches fire for both mutations"
    [ "modified"; "modified"; "modified"; "modified" ]
    (kinds evs);
  Alcotest.(check (list int)) "ascending wd order within each mutation"
    [ wd_dir; wd_file; wd_dir; wd_file ]
    (List.map (fun (e : E.t) -> e.wd) evs)

(* --- bounded drain ------------------------------------------------------ *)

let test_read_events_max () =
  let fs, n = setup () in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ignore (N.add_watch n (p "/d") N.all);
  for i = 1 to 10 do
    ok (Fs.create_file fs ~cred (p (Printf.sprintf "/d/f%d" i)))
  done;
  let batch = N.read_events ~max:3 n in
  Alcotest.(check int) "bounded batch" 3 (List.length batch);
  Alcotest.(check (list (option string))) "oldest first"
    [ Some "f1"; Some "f2"; Some "f3" ]
    (List.map (fun (e : E.t) -> e.name) batch);
  Alcotest.(check int) "rest still queued" 7 (N.pending n);
  Alcotest.(check int) "max:0 drains nothing" 0
    (List.length (N.read_events ~max:0 n));
  Alcotest.(check int) "remainder drains in order" 7
    (List.length (N.read_events n));
  Alcotest.(check int) "empty" 0 (N.pending n)

(* --- the routing index -------------------------------------------------- *)

let test_indexed_visits_few_watches () =
  (* 100 watches on unrelated directories: the linear reference examines
     all of them for every mutation, the index only the matching one. *)
  let visited backend =
    let fs = Fs.create () in
    let n = N.create ~backend fs in
    for i = 1 to 100 do
      ok (Fs.mkdir fs ~cred (p (Printf.sprintf "/d%d" i)));
      ignore (N.add_watch n (p (Printf.sprintf "/d%d" i)) N.all)
    done;
    let v0 = counter fs "fsnotify.watches_visited" in
    ok (Fs.write_file fs ~cred (p "/d50/f") "x");
    counter fs "fsnotify.watches_visited" - v0
  in
  (* write_file is create + write: two mutations *)
  Alcotest.(check int) "linear scans everything" 200 (visited N.Linear);
  Alcotest.(check bool) "index visits only the parent watch" true
    (visited N.Indexed <= 2)

(* Randomized structural equivalence: the indexed router must emit a
   byte-identical event sequence to the retained linear reference for
   arbitrary workloads — creates/writes/renames/attribs/deletes under
   nested directories, mixed exact/parent/recursive watches with random
   masks, watches added and removed mid-stream, bounded drains at random
   points. *)
let test_randomized_equivalence () =
  let rng = Random.State.make [| 0xE14; 7 |] in
  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
  let fs = Fs.create () in
  let lin = N.create ~backend:N.Linear fs in
  let idx = N.create ~backend:N.Indexed fs in
  let dirs =
    [| "/a"; "/a/b"; "/a/b/c"; "/a/b/c/d"; "/a/x"; "/m"; "/m/n"; "/m/n/o";
       "/z" |]
  in
  let files =
    Array.map (fun d -> d ^ "/file") dirs
    |> Array.append [| "/a/f0"; "/a/b/f1"; "/m/f2"; "/m/n/o/f3"; "/z/f4" |]
  in
  let anchors = Array.append dirs files in
  let all_kinds =
    E.
      [ Created; Deleted; Modified; Attrib; Moved_from; Moved_to; Delete_self;
        Move_self ]
  in
  let random_mask () =
    let m =
      List.filter (fun _ -> Random.State.bool rng) all_kinds |> N.mask
    in
    if m = 0 then N.all else m
  in
  let live_wds = ref [] in
  let drain_and_compare ?max () =
    let a = strings (N.read_events ?max lin) in
    let b = strings (N.read_events ?max idx) in
    Alcotest.(check (list string)) "identical event sequences" a b
  in
  for _ = 1 to 600 do
    match Random.State.int rng 10 with
    | 0 -> ignore (Fs.mkdir_p fs ~cred (p (pick dirs)))
    | 1 | 2 ->
      ignore (Fs.write_file fs ~cred (p (pick files)) (string_of_int (Random.State.int rng 3)))
    | 3 -> ignore (Fs.unlink fs ~cred (p (pick files)))
    | 4 ->
      ignore (Fs.rename fs ~cred ~src:(p (pick anchors)) ~dst:(p (pick anchors)))
    | 5 -> ignore (Fs.chmod fs ~cred (p (pick anchors)) 0o700)
    | 6 ->
      ignore
        (Fs.setxattr fs ~cred (p (pick anchors)) ~name:"k"
           ~value:(string_of_int (Random.State.int rng 10)))
    | 7 ->
      let anchor = p (pick anchors) in
      let recursive = Random.State.bool rng in
      let mask = random_mask () in
      let wd_l = N.add_watch ~recursive lin anchor mask in
      let wd_i = N.add_watch ~recursive idx anchor mask in
      Alcotest.(check int) "same wd on both backends" wd_l wd_i;
      live_wds := wd_l :: !live_wds
    | 8 -> (
      match !live_wds with
      | [] -> ()
      | wds ->
        let wd = List.nth wds (Random.State.int rng (List.length wds)) in
        N.rm_watch lin wd;
        N.rm_watch idx wd;
        live_wds := List.filter (fun w -> w <> wd) wds)
    | _ ->
      if Random.State.bool rng then
        drain_and_compare ~max:(Random.State.int rng 5) ()
  done;
  drain_and_compare ();
  Alcotest.(check int) "same pending" (N.pending lin) (N.pending idx);
  Alcotest.(check int) "same coalescing" (N.coalesced lin) (N.coalesced idx);
  Alcotest.(check int) "same overflow accounting" (N.overflows lin)
    (N.overflows idx)

(* Same equivalence under queue pressure: a tiny queue forces overflow
   sentinels and dropped events; both backends must clamp and resume
   identically. *)
let test_equivalence_under_overflow () =
  let fs = Fs.create () in
  let lin = N.create ~backend:N.Linear ~queue_limit:4 fs in
  let idx = N.create ~backend:N.Indexed ~queue_limit:4 fs in
  ok (Fs.mkdir fs ~cred (p "/d"));
  ignore (N.add_watch lin (p "/d") N.all);
  ignore (N.add_watch idx (p "/d") N.all);
  for round = 1 to 3 do
    for i = 1 to 10 do
      ok
        (Fs.write_file fs ~cred
           (p (Printf.sprintf "/d/r%d_f%d" round i))
           "x")
    done;
    let a = strings (N.read_events lin) in
    let b = strings (N.read_events idx) in
    Alcotest.(check (list string)) "identical under overflow" a b;
    Alcotest.(check int) "clamped" 4 (List.length a)
  done;
  Alcotest.(check int) "same drop count" (N.overflows lin) (N.overflows idx)

(* --- many notifiers on one file system ------------------------------------ *)

(* One randomized script, replayed on three worlds: [k] Indexed
   notifiers sharing one file system (one dispatcher), [k] Linear
   notifiers on a twin file system (a private hook and full scan each),
   and [k] file systems holding one Indexed notifier apiece (a private
   dispatcher each: the layout before notifiers shared one). Notifiers
   join late, drop watches and close mid-script; small queues overflow;
   repeated writes coalesce. Every notifier's event list must agree
   across the three worlds, the shared and Linear worlds must fire wake
   callbacks in the same global order, and the shared dispatcher must
   visit exactly the watches the private ones visit in total. *)
type step =
  | Mutate of (Fs.t -> unit)
  | Spawn of int
  | Watch of int * Path.t * bool * N.mask
  | Unwatch of int * int
  | Close of int
  | Drain of int * int option

let k = 6

let queue_limit i = if i mod 3 = 0 then 6 else 64

let script seed ~steps =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let pick arr = arr.(int (Array.length arr)) in
  let dirs = [| "/a"; "/a/b"; "/a/b/c"; "/a/x"; "/m"; "/m/n"; "/z" |] in
  let files =
    Array.append
      (Array.map (fun d -> d ^ "/file") dirs)
      [| "/a/f0"; "/m/n/f1" |]
  in
  let anchors = Array.append dirs files in
  let spawned = Array.init k (fun i -> i < k - 2) in
  let closed = Array.make k false in
  let next_wd = Array.make k 1 in
  let live = Array.make k [] in
  let open_notifier () =
    let i = int k in
    if spawned.(i) && not closed.(i) then Some i else None
  in
  let random_mask () =
    let m =
      List.filter
        (fun _ -> Random.State.bool rng)
        E.[ Created; Deleted; Modified; Attrib; Moved_from; Moved_to;
            Delete_self; Move_self ]
      |> N.mask
    in
    if m = 0 then N.all else m
  in
  (* Every random draw happens here, never inside a [Mutate] closure, so
     each world replays the very same mutations. *)
  List.init steps (fun _ ->
      match int 14 with
      | 0 ->
        let d = p (pick dirs) in
        Mutate (fun fs -> ignore (Fs.mkdir_p fs ~cred d))
      | 1 | 2 | 3 ->
        let f = p (pick files) and v = string_of_int (int 3) in
        Mutate (fun fs -> ignore (Fs.write_file fs ~cred f v))
      | 4 ->
        let f = p (pick files) in
        Mutate (fun fs -> ignore (Fs.unlink fs ~cred f))
      | 5 ->
        let src = p (pick anchors) and dst = p (pick anchors) in
        Mutate (fun fs -> ignore (Fs.rename fs ~cred ~src ~dst))
      | 6 ->
        let a = p (pick anchors) and v = string_of_int (int 5) in
        Mutate (fun fs -> ignore (Fs.setxattr fs ~cred a ~name:"k" ~value:v))
      | 7 | 8 -> (
        match open_notifier () with
        | Some i ->
          let wd = next_wd.(i) in
          next_wd.(i) <- wd + 1;
          live.(i) <- wd :: live.(i);
          Watch (i, p (pick anchors), Random.State.bool rng, random_mask ())
        | None -> Drain (0, None))
      | 9 -> (
        match open_notifier () with
        | Some i when live.(i) <> [] ->
          let wd = List.nth live.(i) (int (List.length live.(i))) in
          live.(i) <- List.filter (( <> ) wd) live.(i);
          Unwatch (i, wd)
        | _ -> Drain (1, Some 2))
      | 10 ->
        let i = int k in
        if spawned.(i) then begin
          (* rare: most notifiers live to the end *)
          if int 8 = 0 && not closed.(i) then begin
            closed.(i) <- true;
            Close i
          end
          else Drain (i, None)
        end
        else begin
          spawned.(i) <- true;
          Spawn i
        end
      | _ ->
        let max = if Random.State.bool rng then None else Some (int 4) in
        Drain (int k, max))

type world = {
  ns : N.t option array;
  events : string list array; (* drained, newest first *)
  mutable wakes : int list;   (* notifier index per wake, newest first *)
}

let play ~backend ~fs_of ~fss steps =
  let w =
    { ns = Array.make k None; events = Array.make k []; wakes = [] }
  in
  let spawn i =
    let n = N.create ~backend ~queue_limit:(queue_limit i) (fs_of i) in
    N.set_wakeup n (fun () -> w.wakes <- i :: w.wakes);
    w.ns.(i) <- Some n
  in
  let drain i max =
    Option.iter
      (fun n ->
        w.events.(i) <-
          List.rev_append (strings (N.read_events ?max n)) w.events.(i))
      w.ns.(i)
  in
  for i = 0 to k - 3 do spawn i done;
  List.iter
    (function
      | Mutate f -> List.iter f fss
      | Spawn i -> spawn i
      | Watch (i, path, recursive, mask) ->
        Option.iter
          (fun n -> ignore (N.add_watch ~recursive n path mask))
          w.ns.(i)
      | Unwatch (i, wd) -> Option.iter (fun n -> N.rm_watch n wd) w.ns.(i)
      | Close i -> Option.iter N.close w.ns.(i)
      | Drain (i, max) -> drain i max)
    steps;
  for i = 0 to k - 1 do drain i None done;
  w

let test_many_notifiers_equivalence () =
  let steps = script 0x5EA12 ~steps:1500 in
  let on_one backend fs =
    play ~backend ~fs_of:(fun _ -> fs) ~fss:[ fs ] steps
  in
  let shared_fs = Fs.create () in
  let shared = on_one N.Indexed shared_fs in
  let linear = on_one N.Linear (Fs.create ()) in
  let own = Array.init k (fun _ -> Fs.create ()) in
  let private_ =
    play ~backend:N.Indexed ~fs_of:(Array.get own) ~fss:(Array.to_list own)
      steps
  in
  for i = 0 to k - 1 do
    let name what = Printf.sprintf "notifier %d: %s" i what in
    Alcotest.(check (list string)) (name "shared = linear") linear.events.(i)
      shared.events.(i);
    Alcotest.(check (list string)) (name "shared = private") private_.events.(i)
      shared.events.(i)
  done;
  Alcotest.(check (list int)) "same global wake order" linear.wakes
    shared.wakes;
  let visited fs = counter fs "fsnotify.watches_visited" in
  Alcotest.(check int) "shared dispatcher visits what the private ones do"
    (Array.fold_left (fun acc fs -> acc + visited fs) 0 own)
    (visited shared_fs);
  let total f =
    Array.fold_left (fun acc n -> acc + Option.fold ~none:0 ~some:f n) 0
  in
  Alcotest.(check int) "same coalescing" (total N.coalesced linear.ns)
    (total N.coalesced shared.ns);
  Alcotest.(check int) "same overflow drops" (total N.overflows linear.ns)
    (total N.overflows shared.ns);
  (* the script really exercised what it claims to *)
  Alcotest.(check bool) "coalescing happened" true
    (total N.coalesced shared.ns > 0);
  Alcotest.(check bool) "overflow happened" true
    (total N.overflows shared.ns > 0);
  Alcotest.(check bool) "a notifier closed" true
    (List.exists (function Close _ -> true | _ -> false) steps);
  Alcotest.(check bool) "a notifier joined late" true
    (List.exists (function Spawn _ -> true | _ -> false) steps)

(* One FS hook however many notifiers share the file system; it goes
   away with the last of them, and a dropped file system is not kept
   alive by the dispatcher table. *)
let test_one_hook_per_fs () =
  let fs = Fs.create () in
  let ns = List.init 50 (fun _ -> N.create fs) in
  Alcotest.(check int) "50 notifiers, one hook" 1 (Fs.hooks fs);
  let lin = N.create ~backend:N.Linear fs in
  Alcotest.(check int) "a Linear notifier brings its own hook" 2 (Fs.hooks fs);
  N.close lin;
  List.iteri (fun i n -> if i > 0 then N.close n) ns;
  Alcotest.(check int) "hook stays while a notifier is open" 1 (Fs.hooks fs);
  N.close (List.hd ns);
  Alcotest.(check int) "last close releases the hook" 0 (Fs.hooks fs);
  let weak = Weak.create 1 in
  (fun () ->
    let fs = Fs.create () in
    let n = N.create fs in
    ignore (N.add_watch n Path.root N.all);
    Weak.set weak 0 (Some fs))
    ();
  Gc.full_major ();
  Alcotest.(check bool) "a dropped file system is collected" false
    (Weak.check weak 0)

(* A hook subscribed between two notifiers' creations keeps running
   between them: the later notifier joins a fresh dispatcher behind it. *)
let test_interleaved_hook_keeps_position () =
  let fs = Fs.create () in
  let log = ref [] in
  let watch name =
    let n = N.create fs in
    ignore (N.add_watch n Path.root N.all);
    N.set_wakeup n (fun () -> log := name :: !log)
  in
  watch "first";
  let _h = Fs.subscribe fs (fun _ -> log := "hook" :: !log) in
  watch "second";
  ok (Fs.mkdir fs ~cred (p "/d"));
  Alcotest.(check (list string)) "subscription order"
    [ "first"; "hook"; "second" ] (List.rev !log)

(* A detached driver's watches leave the shared trie: a write under its
   flows/ is routed to nobody, while the other driver's still fire. *)
let test_detach_leaves_shared_trie () =
  let built = Netsim.Topo_gen.linear 2 in
  let fs = Fs.create () in
  let yfs = Yancfs.Yanc_fs.create fs in
  let mgr = Driver.Manager.create ~yfs ~net:built.Netsim.Topo_gen.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.attach mgr ~dpid:2L ~version:Driver.Manager.V10;
  Driver.Manager.run_control mgr ~now:0.;
  let hooks = Fs.hooks fs in
  let visits_of switch =
    let v0 = counter fs "fsnotify.watches_visited" in
    let flows =
      Yancfs.Layout.flows_dir ~root:Yancfs.Layout.default_root switch
    in
    ok (Fs.write_file fs ~cred (Path.child flows "probe") "x");
    counter fs "fsnotify.watches_visited" - v0
  in
  Alcotest.(check bool) "sw1's driver watches its flows" true
    (visits_of "sw1" > 0);
  Driver.Manager.detach mgr ~dpid:1L;
  Alcotest.(check int) "detached: no watch left on sw1" 0 (visits_of "sw1");
  Alcotest.(check bool) "sw2's driver still routed" true (visits_of "sw2" > 0);
  Alcotest.(check int) "the dispatcher's hook stays for sw2" hooks
    (Fs.hooks fs);
  Driver.Manager.detach mgr ~dpid:2L;
  Alcotest.(check int) "last driver gone: hook released" (hooks - 1)
    (Fs.hooks fs)

(* DFS replicas are separate file systems with separate dispatchers: a
   notifier sees only its own replica's mutations (replayed ops
   included), never a peer's local ones. *)
let test_replicas_are_isolated () =
  let dfs =
    Dfs.Cluster.create
      ~consistency:(Dfs.Consistency.Eventual { propagation_s = 1.0 }) ~n:2 ()
  in
  let a = Dfs.Cluster.node dfs 0 and b = Dfs.Cluster.node dfs 1 in
  let na = N.create a and nb = N.create b in
  ignore (N.add_watch na Path.root N.all);
  ignore (N.add_watch nb Path.root N.all);
  ok (Fs.write_file a ~cred (p "/on_a") "x");
  Alcotest.(check (list string)) "a sees its own write"
    [ "created"; "modified" ]
    (kinds (N.read_events na));
  Alcotest.(check int) "b sees nothing before replication" 0 (N.pending nb);
  Dfs.Cluster.advance dfs 2.0;
  Alcotest.(check bool) "b sees the replayed op" true
    (List.exists (fun (e : E.t) -> e.name = Some "on_a") (N.read_events nb));
  Alcotest.(check int) "a is not told about b's replay" 0 (N.pending na)

let () =
  Alcotest.run "fsnotify"
    [ ( "events",
        [ Alcotest.test_case "create" `Quick test_create_events;
          Alcotest.test_case "modify+delete" `Quick test_modify_and_delete;
          Alcotest.test_case "self watch on file" `Quick test_file_watch_self;
          Alcotest.test_case "mask filtering" `Quick test_mask_filtering;
          Alcotest.test_case "moves" `Quick test_move_events;
          Alcotest.test_case "recursive" `Quick test_recursive_watch;
          Alcotest.test_case "attrib" `Quick test_attrib_events;
          Alcotest.test_case "watch future path" `Quick test_watch_future_path ] );
      ( "lifecycle",
        [ Alcotest.test_case "rm_watch" `Quick test_rm_watch;
          Alcotest.test_case "overflow" `Quick test_queue_overflow;
          Alcotest.test_case "close" `Quick test_close_detaches;
          Alcotest.test_case "independent notifiers" `Quick test_two_notifiers_independent;
          Alcotest.test_case "read charges a syscall" `Quick
            test_read_events_charges_syscall ] );
      ( "coalescing",
        [ Alcotest.test_case "repeated writes merge" `Quick
            test_coalesce_repeated_writes;
          Alcotest.test_case "interleaved paths do not merge" `Quick
            test_coalesce_interleaving_boundary;
          Alcotest.test_case "drain is a boundary" `Quick
            test_coalesce_drain_boundary;
          Alcotest.test_case "watches are a boundary" `Quick
            test_coalesce_distinct_watches ] );
      ( "batching",
        [ Alcotest.test_case "read_events ?max" `Quick test_read_events_max ] );
      ( "routing",
        [ Alcotest.test_case "index visits few watches" `Quick
            test_indexed_visits_few_watches;
          Alcotest.test_case "randomized equivalence" `Quick
            test_randomized_equivalence;
          Alcotest.test_case "equivalence under overflow" `Quick
            test_equivalence_under_overflow ] );
      ( "dispatcher",
        [ Alcotest.test_case "many notifiers: shared = linear = private" `Quick
            test_many_notifiers_equivalence;
          Alcotest.test_case "one hook per file system" `Quick
            test_one_hook_per_fs;
          Alcotest.test_case "interleaved hook keeps its position" `Quick
            test_interleaved_hook_keeps_position;
          Alcotest.test_case "detach leaves the shared trie" `Quick
            test_detach_leaves_shared_trie;
          Alcotest.test_case "replicas are isolated" `Quick
            test_replicas_are_isolated ] ) ]
