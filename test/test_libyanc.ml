(* Tests for libyanc (paper §8.1): the shared-memory fastpath. The
   zero-copy packet-in ring is {!Yancfs.Pktin}, tested in test_yancfs.
   The key invariant: the fastpath produces exactly the
   same file-system state as the slow path, at a fraction of the kernel
   crossings. *)

module Y = Yancfs
module Fs = Vfs.Fs
module OF = Openflow

let cred = Vfs.Cred.root

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

let setup () =
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  ignore (Fs.mkdir fs ~cred (Y.Layout.switch ~root:Y.Layout.default_root "sw1"));
  fs, yfs

let sample_flow i =
  { Y.Flowdir.default with
    Y.Flowdir.of_match =
      { OF.Of_match.any with
        OF.Of_match.dl_type = Some 0x0800; tp_dst = Some (1000 + i) };
    actions = [ OF.Action.Output (OF.Action.Physical ((i mod 4) + 1)) ];
    priority = i }

(* Read from a snapshot, so a missing series fails instead of reading 0. *)
let crossings fs =
  let snap = Telemetry.Registry.snapshot (Fs.registry fs) in
  match Telemetry.Registry.find snap "vfs.crossings" with
  | Some v -> int_of_float v
  | None -> Alcotest.fail "no vfs.crossings series"

let test_fastpath_one_crossing_per_batch () =
  let fs, yfs = setup () in
  let fp = Libyanc.Fastpath.create yfs in
  let c0 = crossings fs in
  (match
     Libyanc.Fastpath.push_flows fp
       (List.init 100 (fun i -> "sw1", Printf.sprintf "f%d" i, sample_flow i))
   with
  | Ok 100 -> ()
  | Ok n -> Alcotest.failf "wrote %d" n
  | Error e -> Alcotest.failf "push: %s" (Vfs.Errno.to_string e));
  Alcotest.(check int) "100 flows, ONE crossing" 1 (crossings fs - c0);
  Alcotest.(check int) "all present" 100
    (List.length (Y.Yanc_fs.flow_names yfs ~cred "sw1"));
  (* The slow path, measured: the same 100 flows through the files. *)
  let slow_fs, slow_yfs = setup () in
  let s0 = crossings slow_fs in
  for i = 0 to 99 do
    ok
      (Y.Yanc_fs.create_flow slow_yfs ~cred ~switch:"sw1"
         ~name:(Printf.sprintf "f%d" i) (sample_flow i))
  done;
  let slow = crossings slow_fs - s0 in
  Alcotest.(check bool)
    (Printf.sprintf "fast path (1) below the slow path (%d)" slow)
    true (1 < slow)

let test_fastpath_state_identical_to_slow_path () =
  (* Same flows via both paths -> byte-identical flow directories. *)
  let fs_slow, yfs_slow = setup () in
  let fs_fast, yfs_fast = setup () in
  let flows = List.init 10 (fun i -> Printf.sprintf "f%d" i, sample_flow i) in
  List.iter
    (fun (name, flow) ->
      ok (Y.Yanc_fs.create_flow yfs_slow ~cred ~switch:"sw1" ~name flow))
    flows;
  let fp = Libyanc.Fastpath.create yfs_fast in
  ok
    (Result.map ignore
       (Libyanc.Fastpath.push_flows fp
          (List.map (fun (name, flow) -> "sw1", name, flow) flows)));
  let dump fs =
    List.rev
      (ok
         (Fs.fold fs ~cred Y.Layout.default_root ~init:[] (fun acc path st ->
              let content =
                if st.Fs.kind = Fs.File then
                  match Fs.read_file fs ~cred path with Ok v -> v | Error _ -> ""
                else ""
              in
              (Vfs.Path.to_string path, content) :: acc, `Continue)))
  in
  Alcotest.(check (list (pair string string))) "identical trees" (dump fs_slow)
    (dump fs_fast)

let test_fastpath_create_flow () =
  let fs, yfs = setup () in
  let fp = Libyanc.Fastpath.create yfs in
  let c0 = crossings fs in
  ok (Libyanc.Fastpath.create_flow fp ~switch:"sw1" ~name:"one" (sample_flow 1));
  Alcotest.(check int) "one crossing" 1 (crossings fs - c0);
  (* the flow is a normal committed flow *)
  match Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw1" "one" with
  | Ok flow -> Alcotest.(check int) "committed" 1 flow.Y.Flowdir.version
  | Error e -> Alcotest.fail e

let test_fastpath_delete_and_read () =
  let fs, yfs = setup () in
  let fp = Libyanc.Fastpath.create yfs in
  ok
    (Result.map ignore
       (Libyanc.Fastpath.push_flows fp
          [ "sw1", "a", sample_flow 1; "sw1", "b", sample_flow 2 ]));
  (* counters written by a driver *)
  ok
    (Y.Flowdir.write_counters fs ~cred
       (ok (Y.Yanc_fs.open_flow yfs ~cred ~switch:"sw1" "a"))
       ~packets:5L ~bytes:500L ~duration_s:1);
  let c0 = crossings fs in
  let counters = ok (Libyanc.Fastpath.read_flow_counters fp ~switch:"sw1") in
  Alcotest.(check int) "bulk read = one crossing" 1 (crossings fs - c0);
  Alcotest.(check (list (triple string int64 int64))) "counters" [ "a", 5L, 500L ]
    counters;
  ok (Libyanc.Fastpath.delete_flows fp [ "sw1", "a"; "sw1", "b"; "sw1", "ghost" ]);
  Alcotest.(check (list string)) "deleted" [] (Y.Yanc_fs.flow_names yfs ~cred "sw1")

let test_fastpath_slow_path_cost_contrast () =
  (* The §8.1 claim in miniature: per-flow slow-path crossings are an
     order of magnitude above fastpath crossings. *)
  let fs, yfs = setup () in
  let c0 = crossings fs in
  ok (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"slow" (sample_flow 1));
  let slow = crossings fs - c0 in
  Alcotest.(check bool) "slow path is many syscalls" true (slow >= 8);
  let c0 = crossings fs in
  let fp = Libyanc.Fastpath.create yfs in
  ok (Libyanc.Fastpath.create_flow fp ~switch:"sw1" ~name:"fast" (sample_flow 2));
  Alcotest.(check int) "fastpath is one" 1 (crossings fs - c0)

let () =
  Alcotest.run "libyanc"
    [ ( "fastpath",
        [ Alcotest.test_case "one crossing per batch" `Quick
            test_fastpath_one_crossing_per_batch;
          Alcotest.test_case "state identical to slow path" `Quick
            test_fastpath_state_identical_to_slow_path;
          Alcotest.test_case "atomic create" `Quick test_fastpath_create_flow;
          Alcotest.test_case "bulk delete/read" `Quick test_fastpath_delete_and_read;
          Alcotest.test_case "cost contrast" `Quick
            test_fastpath_slow_path_cost_contrast ] ) ]
