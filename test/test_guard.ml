(* A grep-style guard over the sources of lib/: each job has one
   mechanism, and no write result is dropped with [ignore].

   Over lib/apps and lib/views:

   - Only App_intf (its Packet_in module) touches Eventdir.subscribe and
     Eventdir.consume.
   - Only policyd's reprioritize calls Flowdir.update; every other
     create-or-update goes through Yanc_fs.upsert_flow.
   - One topology reader: only Topo_view reads [peer] symlinks
     (Yanc_fs.peer_of) or builds adjacency and next-hop tables; the
     auditor's peer-symmetry check is the one other peer_of.

   Over all of lib/:
   - [ignore (...)] never wraps a packet-out, peer, host, flow, counter
     or event write, nor a file-system mutator (rmdir, mkdir_p, chown,
     write_file, append_file, unlink); those results are returned, or
     counted and logged.
   - Only the two observers the VFS names, the fsnotify notifier and
     the distributed-FS cluster, subscribe to a file system's mutation
     stream: typed children are the schema's mkdir policy, not a hook.
   - Only lib/vfs calls [canonicalize]: containment is the
     credential's floor, checked in the walk that acts, not a
     canonicalize-then-use check beside it.
   - Only lib/netsim and Yanc.Audit read a hardware flow table, so
     "hardware ≡ file system" is judged in one place.
   - Only lib/openflow names the wire codecs (Of10, Of13); everything
     else speaks Openflow.Msg through Openflow.Dialect, and
     Openflow.Dialect.t is the one V10 | V13 type (others may re-export
     it by type equation).
   - Only Flowdir reads or writes the files of a flow directory: it
     alone names them and makes handle-relative file calls.
   - In lib/yancfs, only Record reads and writes a record's files
     ([Fs.read_file]/[Fs.write_file] and their [_at] forms), beside a
     named list of one-file accessors.
   - In the driver, every flow_mod leaves through the commit path:
     [flow_add] is applied only in [install], [flow_delete_strict] only
     in [send_plan].
   - A name of the /net tree (a directory, a record field, a state file,
     a symlink, a name pattern's prefix) is spelled as a string literal
     only in Yancfs.Schema, beside a named list of literals that are
     something else: an OpenFlow or policy keyword, a log label, a
     /yanc/.proc path.
   - No top-level definition in lib/ makes process-wide mutable state:
     no [ref], and no module's [create], [make] or [init]. *)

let dirs = [ "../lib/apps"; "../lib/views" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Blank out comments (nested, as OCaml has them), keeping newlines so
   offsets still map to the original lines. *)
let strip_comments src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let rec go i depth =
    if i >= n then ()
    else if i + 1 < n && Bytes.get b i = '(' && Bytes.get b (i + 1) = '*' then begin
      Bytes.fill b i 2 ' ';
      go (i + 2) (depth + 1)
    end
    else if depth > 0 && i + 1 < n && Bytes.get b i = '*' && Bytes.get b (i + 1) = ')'
    then begin
      Bytes.fill b i 2 ' ';
      go (i + 2) (depth - 1)
    end
    else begin
      if depth > 0 && Bytes.get b i <> '\n' then Bytes.set b i ' ';
      go (i + 1) depth
    end
  in
  go 0 0;
  Bytes.to_string b

let rec ml_files ~suffixes dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then ml_files ~suffixes path
         else if List.exists (Filename.check_suffix f) suffixes then [ path ]
         else [])

(* (path, source with comments blanked) of every .ml (by default) under
   [dirs]. *)
let sources ?(dirs = dirs) ?(suffixes = [ ".ml" ]) () =
  List.concat_map (ml_files ~suffixes) dirs
  |> List.map (fun path -> (path, strip_comments (read_file path)))

let line_of src pos =
  let n = ref 1 in
  String.iteri (fun i c -> if i < pos && c = '\n' then incr n) src;
  !n

(* Every offset at which [needle] occurs in [src]. *)
let occurrences src needle =
  let len = String.length needle in
  let rec go from acc =
    if from + len > String.length src then List.rev acc
    else if String.sub src from len = needle then go (from + len) (from :: acc)
    else go (from + 1) acc
  in
  go 0 []

(* The top-level definition enclosing [pos]: the name after the last
   column-0 [let] before it. *)
let enclosing_definition src pos =
  let start = ref None in
  List.iter
    (fun i -> if i < pos && (i = 0 || src.[i - 1] = '\n') then start := Some i)
    (occurrences src "let ");
  match !start with
  | None -> ""
  | Some i ->
    let name_at j =
      let stop =
        Option.value (String.index_from_opt src j ' ') ~default:(String.length src)
      in
      String.sub src j (stop - j)
    in
    let first = name_at (i + 4) in
    if first = "rec" then name_at (i + 8) else first

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '\'' -> true
  | _ -> false

let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* The dotted identifier that [ignore (] applies, if [pos] starts one. *)
let ignored_call src pos =
  let n = String.length src in
  let rec skip i = if i < n && is_space src.[i] then skip (i + 1) else i in
  let i = skip (pos + String.length "ignore") in
  if i < n && src.[i] = '(' then begin
    let j = skip (i + 1) in
    let k = ref j in
    while !k < n && is_ident_char src.[!k] do incr k done;
    if !k > j then Some (String.sub src j (!k - j)) else None
  end
  else None

(* [allowed] sees the file's path and the enclosing top-level
   definition. *)
let violations ?dirs ?suffixes ~matching ~allowed () =
  List.concat_map
    (fun (path, src) ->
      List.filter_map
        (fun pos ->
          if allowed path (enclosing_definition src pos) then None
          else Some (Printf.sprintf "%s:%d" path (line_of src pos)))
        (List.concat_map (occurrences src) matching))
    (sources ?dirs ?suffixes ())

let is file path = Filename.basename path = file

let check_none what found =
  Alcotest.(check (list string)) what [] found

let test_packet_in () =
  check_none "Eventdir.subscribe/consume outside App_intf"
    (violations
       ~matching:[ "Eventdir.subscribe"; "Eventdir.consume" ]
       ~allowed:(fun path _ -> is "app_intf.ml" path) ());
  (* The scan must see the one sanctioned use, or it proves nothing. *)
  Alcotest.(check bool) "App_intf subscribes" true
    (List.exists
       (fun (path, src) ->
         is "app_intf.ml" path && occurrences src "Eventdir.subscribe" <> [])
       (sources ()))

let test_flow_update () =
  check_none "Flowdir.update outside policyd's reprioritize"
    (violations ~matching:[ "Flowdir.update" ] ~allowed:(fun path def ->
         is "policy_engine.ml" path && def = "reprioritize") ())

let test_topology_reader () =
  let reads =
    violations ~matching:[ "peer_of"; "adjacency"; "next_hops" ]
  in
  check_none "topology read outside Topo_view"
    (reads
       ~allowed:(fun path def ->
         is "topo_view.ml" path || (is "auditor.ml" path && def = "audit"))
       ());
  (* The scan must see the view's own reads, or it proves nothing. *)
  Alcotest.(check bool) "Topo_view reads the topology" true
    (reads ~allowed:(fun path _ -> not (is "topo_view.ml" path)) () <> [])

let unchecked_writes =
  [ "Outdir.submit"; "set_peer"; "upsert_host"; "delete_flow"; "set_error";
    "write_counters"; "create_flow"; "Eventdir.publish"; "rmdir"; "mkdir_p";
    "chown"; "write_file"; "append_file"; "unlink" ]

let test_ignored_writes () =
  let found =
    List.concat_map
      (fun (file, src) ->
        List.filter_map
          (fun pos ->
            let word_start = pos = 0 || not (is_ident_char src.[pos - 1]) in
            match ignored_call src pos with
            | Some call
              when word_start
                   && List.exists
                        (fun w ->
                          call = w || String.ends_with ~suffix:("." ^ w) call)
                        unchecked_writes ->
              Some (Printf.sprintf "%s:%d: ignore (%s" file (line_of src pos) call)
            | Some _ | None -> None)
          (occurrences src "ignore"))
      (sources ~dirs:[ "../lib" ] ())
  in
  check_none "write results dropped with ignore" found

let test_subscribers () =
  let observers = [ "../lib/fsnotify/notifier.ml"; "../lib/dfs/cluster.ml" ] in
  let subscribes =
    violations ~dirs:[ "../lib" ] ~matching:[ "Fs.subscribe" ]
  in
  check_none "Fs.subscribe outside the notifier and the cluster"
    (subscribes ~allowed:(fun path _ -> List.mem path observers) ());
  (* The scan must see both observers subscribe, or it proves nothing. *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " subscribes") true
        (subscribes ~allowed:(fun path _ -> path <> f) () <> []))
    observers

(* Containment is the credential's floor, checked in the VFS walk: a
   caller that canonicalizes a path and then uses it checks one walk and
   acts through another. *)
let test_canonicalize () =
  let in_vfs path = String.starts_with ~prefix:"../lib/vfs/" path in
  let calls = violations ~dirs:[ "../lib" ] ~matching:[ "canonicalize" ] in
  check_none "canonicalize outside lib/vfs" (calls ~allowed:(fun path _ -> in_vfs path) ());
  (* The scan must see the VFS define it, or it proves nothing. *)
  Alcotest.(check bool) "Fs defines canonicalize" true
    (calls ~allowed:(fun path _ -> not (in_vfs path)) () <> [])

let test_hardware_reads () =
  let audit = "../lib/yanc/audit.ml" in
  let reads =
    violations ~dirs:[ "../lib" ]
      ~matching:
        [ "Sim_switch.flow_stats"; "Sim_switch.table"; "Flow_table.entries" ]
  in
  check_none "hardware table read outside lib/netsim and Audit"
    (reads
       ~allowed:(fun path _ ->
         String.starts_with ~prefix:"../lib/netsim/" path || path = audit)
       ());
  (* The scan must see Audit's read, or it proves nothing. *)
  Alcotest.(check bool) "Audit reads the hardware" true
    (reads ~allowed:(fun path _ -> path <> audit) () <> [])

let in_openflow path = String.starts_with ~prefix:"../lib/openflow/" path

let test_codecs () =
  let names =
    violations ~dirs:[ "../lib" ] ~suffixes:[ ".ml"; ".mli" ]
      ~matching:[ "Of10."; "Of13." ]
  in
  check_none "Of10/Of13 named outside lib/openflow"
    (names ~allowed:(fun path _ -> in_openflow path) ());
  (* The scan must see Dialect's dispatch, or it proves nothing. *)
  Alcotest.(check bool) "Dialect names the codecs" true
    (names ~allowed:(fun path _ -> not (in_openflow path)) () <> [])

(* A [V10 | V13] constructor list is a definition unless it follows a
   type equation to Dialect.t. *)
let test_one_version_type () =
  let equation = "Openflow.Dialect.t =" in
  let definitions =
    List.concat_map
      (fun (path, src) ->
        List.filter_map
          (fun pos ->
            let before = String.trim (String.sub src 0 pos) in
            if String.ends_with ~suffix:equation before then None
            else Some (Printf.sprintf "%s:%d" path (line_of src pos)))
          (occurrences src "V10 | V13"))
      (sources ~dirs:[ "../lib" ] ~suffixes:[ ".ml"; ".mli" ] ())
  in
  Alcotest.(check (list string)) "V10 | V13 defined only by Openflow.Dialect"
    [ "../lib/openflow/dialect.ml:1"; "../lib/openflow/dialect.mli:5" ]
    definitions

(* A flow file's name (as Schema declares it), or a handle-relative
   file call. Event and packet-out spools name a [buffer_id] file of
   their own, so Eventdir and Outdir may name it too; Record makes
   every record's file calls. *)
let test_flow_files () =
  let flowdir = "../lib/yancfs/flowdir.ml" in
  let names =
    violations ~dirs:[ "../lib" ]
      ~matching:
        [ "Schema.version"; "Schema.error"; "Schema.priority"; "Schema.idle_timeout";
          "Schema.hard_timeout"; "Schema.cookie"; "Schema.buffer_id"; "Schema.flow_counters";
          "Layout.flow_attr"; "Layout.flow_counters"; "read_file_at";
          "write_file_at"; "unlink_at"; "mkdir_at"; "readdir_at" ]
  in
  check_none "flow files touched outside Flowdir"
    (names
       ~allowed:(fun path _ ->
         path = flowdir
         || List.exists (fun f -> is f path)
              [ "layout.ml"; "fs.ml"; "record.ml"; "eventdir.ml"; "outdir.ml" ])
       ());
  (* The scan must see Flowdir's own use, or it proves nothing. *)
  Alcotest.(check bool) "Flowdir names the flow files" true
    (names ~allowed:(fun path _ -> path <> flowdir) () <> [])

(* One record codec: in lib/yancfs, only Record reads and writes the
   files of a record. The one-file accessors are the named exceptions:
   a flow's [version] and [error] files, a switch's [status] and other
   single attributes, a port's two state files. *)
let test_record_codec () =
  let record = "../lib/yancfs/record.ml" in
  let one_file =
    [ "flowdir.ml", [ "set_error"; "read_error"; "read_version" ];
      "yanc_fs.ml", [ "read_attr"; "set_switch_status"; "port_up" ] ]
  in
  let calls =
    violations ~dirs:[ "../lib/yancfs" ]
      ~matching:[ "Fs.write_file"; "Fs.read_file" ]
  in
  check_none "record files read or written outside Record"
    (calls
       ~allowed:(fun path def ->
         path = record
         || List.exists
              (fun (file, defs) -> is file path && List.mem def defs)
              one_file)
       ());
  (* The scan must see Record's own calls, or it proves nothing. *)
  Alcotest.(check bool) "Record reads and writes" true
    (calls ~allowed:(fun path _ -> path <> record) () <> [])

(* The top-level definitions applying [name] (a whole word), one per
   use, [name]'s own definition aside. *)
let applying src name =
  List.filter_map
    (fun pos ->
      let after = pos + String.length name in
      let whole =
        (pos = 0 || not (is_ident_char src.[pos - 1]))
        && (after >= String.length src || not (is_ident_char src.[after]))
      in
      let def = enclosing_definition src pos in
      if whole && def <> name then Some def else None)
    (occurrences src name)

let test_driver_flow_mods () =
  let src = strip_comments (read_file "../lib/driver/core.ml") in
  Alcotest.(check (list string)) "flow_add applied only in install"
    [ "install" ] (applying src "flow_add");
  Alcotest.(check (list string)) "flow_delete_strict applied only in send_plan"
    [ "send_plan" ] (applying src "flow_delete_strict")

(* Every name the schema declares: each fixed directory name, each
   record's fields, state files and symlinks, and each non-empty
   number prefix ([port_], [sw]). *)
let schema_names =
  let module S = Yancfs.Schema in
  let rec names (n : S.node) =
    (match n.naming with
    | S.Fixed | S.Numbered when n.name <> "" -> [ n.name ]
    | S.Fixed | S.Numbered | S.Any -> [])
    @ n.fields @ n.state @ List.map fst n.links
    @ List.concat_map names n.children
  in
  List.sort_uniq compare (names S.root)

let schema_file = "../lib/yancfs/schema.ml"

(* Literals in lib/ that spell a schema name but are not one, each
   excused in the one definition that needs it, with why. *)
let not_yanc_names =
  [ "health.ml", "status_of_render", "status"; (* a health report's line key *)
    "syntax.ml", "parse_policy", "id";        (* policy-language keywords *)
    "syntax.ml", "pp_policy", "id";
    "syntax.ml", "parse_policy", "in_port";
    "of_match.ml", "to_fields", "in_port";    (* OpenFlow match field *)
    "of_match.ml", "set_field", "in_port";
    "action.ml", "port_to_string", "in_port"; (* OpenFlow output port *)
    "action.ml", "port_of_string", "in_port";
    "msg.ml", "msg_name", "error";            (* OpenFlow message names *)
    "msg.ml", "msg_name", "packet_out";
    "topology.ml", "set_peer", "peer";        (* a log label *)
    "policy_engine.ml", "status", "error";    (* the engine's status word *)
    "flow_pusher.ml", "parse_line", "name";   (* the flow spec's own key *)
    "controller.ml", "switch_stat", "name";   (* /yanc/.proc switch stat keys *)
    "controller.ml", "switch_stat", "protocol";
    "controller.ml", "switch_stat", "status";
    "config.ml", "parse", "protocol";         (* controller config keys *)
    "config.ml", "parse", "duration";
    "layout.ml", "proc_switches_dir", "switches" ] (* /yanc/.proc/switches *)

(* Each site of a schema name as a string literal in lib/, outside
   Schema and the named list. *)
let yanc_literals () =
  List.concat_map
    (fun (path, src) ->
      List.concat_map
        (fun n ->
          if path = schema_file then []
          else
            List.filter_map
              (fun pos ->
                let def = enclosing_definition src pos in
                if List.exists (fun (file, d, m) -> is file path && d = def && m = n) not_yanc_names
                then None
                else Some (Printf.sprintf "%s:%d: %S" path (line_of src pos) n))
              (occurrences src ("\"" ^ n ^ "\"")))
        schema_names)
    (sources ~dirs:[ "../lib" ] ())

let test_yanc_names () =
  check_none "a yanc name spelled outside Schema" (yanc_literals ());
  (* The scan must see every name where the schema declares it, or it
     proves nothing. *)
  let src = strip_comments (read_file schema_file) in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("Schema spells " ^ n) true
        (occurrences src ("\"" ^ n ^ "\"") <> []))
    schema_names

(* A dotted name that makes state: [ref], or a module's [create], [make]
   or [init] ([Hashtbl.create], [Atomic.make], [Array.make], a table
   from a functor). *)
let is_maker name =
  name = "ref"
  ||
  match List.rev (String.split_on_char '.' name) with
  | f :: m :: _ ->
    List.mem f [ "create"; "make"; "init" ]
    && m <> "" && (match m.[0] with 'A' .. 'Z' -> true | _ -> false)
  | _ -> false

(* The dotted names in [src]. *)
let names src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_char src.[i] && (i = 0 || not (is_ident_char src.[i - 1])) then begin
      let j = ref i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      go !j (String.sub src i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* Process-wide state, as (file, name): each top-level definition in
   [sources] without parameters (a [let] at column 0 binding a name, not
   a function) whose right-hand side makes mutable state. Every Fs,
   controller and test in the process would share such a value, so what
   one run writes would depend on what ran before it. *)
let top_level_state sources =
  List.concat_map
    (fun (path, src) ->
      let n = String.length src in
      let rec skip i = if i < n && is_space src.[i] then skip (i + 1) else i in
      let rec ident_end i = if i < n && is_ident_char src.[i] then ident_end (i + 1) else i in
      (* The body runs to the next line that starts at column 0. *)
      let rec body_end i =
        if i + 1 >= n then n
        else if src.[i] = '\n' && not (is_space src.[i + 1]) then i
        else body_end (i + 1)
      in
      List.filter_map
        (fun pos ->
          let stop = ident_end (pos + 4) in
          let name = String.sub src (pos + 4) (stop - pos - 4) in
          let next = skip stop in
          (* [let name =] or [let name : t =] at column 0: a value, not
             a function ([let rec], [let ()] and operators bind none). *)
          if
            (pos > 0 && src.[pos - 1] <> '\n')
            || name = "" || name = "rec" || next >= n
            || (src.[next] <> '=' && src.[next] <> ':')
          then None
          else
            let body = String.sub src next (body_end next - next) in
            let rhs =
              match String.index_opt body '=' with
              | Some i -> names (String.sub body (i + 1) (String.length body - i - 1))
              | None -> []
            in
            match rhs with
            | ("fun" | "function") :: _ -> None
            | rhs when List.exists is_maker rhs -> Some (Filename.basename path, name)
            | _ -> None)
        (occurrences src "let "))
    sources

let test_process_state () =
  check_none "process-wide state in lib/"
    (List.map
       (fun (file, name) -> file ^ ": " ^ name)
       (top_level_state (sources ~dirs:[ "../lib" ] ())));
  (* The scan sees each kind of maker, or it proves nothing. *)
  let fixture =
    String.concat "\n"
      [ "let a = ref 0"; "let b = Hashtbl.create 16"; "let c = Atomic.make 0";
        "let d = By_fs.create 16"; "let e : int array =\n  Array.make 4 0";
        "let f = Seq.Ring.init 8"; "let g x = ref x"; "let () = ignore (ref 0)";
        "let h = t.create"; "let i = create_all ()"; "let j = function x -> ref x";
        "" ]
  in
  Alcotest.(check (list string)) "the fixture's makers are seen"
    [ "a"; "b"; "c"; "d"; "e"; "f" ]
    (List.map snd (top_level_state [ "fixture.ml", fixture ]))

let () =
  Alcotest.run "guard"
    [ ( "one mechanism",
        [ Alcotest.test_case "packet-in subscription" `Quick test_packet_in;
          Alcotest.test_case "two mutation-stream observers" `Quick
            test_subscribers;
          Alcotest.test_case "flow upsert" `Quick test_flow_update;
          Alcotest.test_case "one topology reader" `Quick test_topology_reader;
          Alcotest.test_case "containment in the VFS walk" `Quick test_canonicalize ] );
      ( "one wire protocol",
        [ Alcotest.test_case "codecs only in lib/openflow" `Quick test_codecs;
          Alcotest.test_case "one version type" `Quick test_one_version_type ] );
      ( "driver",
        [ Alcotest.test_case "one exit for flow_mods" `Quick
            test_driver_flow_mods ] );
      ( "flow files",
        [ Alcotest.test_case "only Flowdir" `Quick test_flow_files;
          Alcotest.test_case "yanc names only in Schema" `Quick test_yanc_names;
          Alcotest.test_case "one record codec" `Quick test_record_codec ] );
      ( "process-wide state",
        [ Alcotest.test_case "none in lib" `Quick test_process_state ] );
      ( "hardware reads",
        [ Alcotest.test_case "only netsim and Audit" `Quick
            test_hardware_reads ] );
      ( "checked writes",
        [ Alcotest.test_case "no ignored write results" `Quick
            test_ignored_writes ] ) ]
