module Fs = Vfs.Fs
module Of_match = Openflow.Of_match
module Action = Openflow.Action

type t = {
  of_match : Of_match.t;
  actions : Action.t list;
  priority : int;
  idle_timeout : int;
  hard_timeout : int;
  cookie : int64;
  version : int;
  buffer_id : int32 option;
}

let default =
  { of_match = Of_match.any; actions = []; priority = 0x8000; idle_timeout = 0;
    hard_timeout = 0; cookie = 0L; version = 0; buffer_id = None }

let ( let* ) = Result.bind

let buffer_id_file = "buffer_id"

let commit_file = Layout.version_file

let is_match name = String.length name > 6 && String.starts_with ~prefix:"match." name

let is_action name = String.length name > 7 && String.starts_with ~prefix:"action." name

let is_field_file name = is_match name || is_action name

(* A file of the flow: [name] in the held flow directory or, with
   [flow], in the flow [flow] below a handle on its flows/ directory. *)
let file ?flow name =
  match flow with None -> name | Some flow -> String.concat "/" [ flow; name ]

(* Write every field file, removing the stale match/action files of
   [existing] (the directory's listing) first so a narrower rewrite
   wins, then the incremented version: the commit point. *)
let write_over fs ~cred d ~existing t =
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        if is_field_file name then Fs.unlink_at fs ~cred d name else Ok ())
      (Ok ()) existing
  in
  let* () =
    Record.write fs ~cred d
      (List.map (fun (field, value) -> ("match." ^ field, value)) (Of_match.to_fields t.of_match))
  in
  let* () = Record.write fs ~cred d (Action.to_fields t.actions) in
  let commit = [ commit_file, string_of_int (t.version + 1) ] in
  Record.write fs ~cred d
    ((Layout.priority_file, string_of_int t.priority)
    :: (Layout.idle_timeout_file, string_of_int t.idle_timeout)
    :: (Layout.hard_timeout_file, string_of_int t.hard_timeout)
    :: (Layout.cookie_file, Printf.sprintf "0x%Lx" t.cookie)
    :: Option.fold ~none:commit
         ~some:(fun id -> (buffer_id_file, Int32.to_string id) :: commit)
         t.buffer_id)

let write fs ~cred d t = write_over fs ~cred d ~existing:[] t

let scalar_files =
  [ Layout.priority_file; Layout.idle_timeout_file; Layout.hard_timeout_file;
    Layout.cookie_file; commit_file; buffer_id_file ]

let is_flow_file name = is_field_file name || List.mem name scalar_files

let invalid name value = Error (Printf.sprintf "%s: invalid value %S" name value)

(* One field file's value onto [acc]; action files are parsed together
   in [parse], to honour their sequencing. *)
let field acc (name, value) =
  let value = String.trim value in
  if is_match name then
    match Of_match.set_field acc.of_match (String.sub name 6 (String.length name - 6)) value with
    | Ok of_match -> Ok { acc with of_match }
    | Error _ as e -> e
  else if name = Layout.priority_file then
    match int_of_string_opt value with
    | Some priority -> Ok { acc with priority }
    | None -> invalid name value
  else if name = Layout.idle_timeout_file then
    match int_of_string_opt value with
    | Some idle_timeout -> Ok { acc with idle_timeout }
    | None -> invalid name value
  else if name = Layout.hard_timeout_file then
    match int_of_string_opt value with
    | Some hard_timeout -> Ok { acc with hard_timeout }
    | None -> invalid name value
  else if name = Layout.cookie_file then
    match Int64.of_string_opt value with
    | Some cookie -> Ok { acc with cookie }
    | None -> invalid name value
  else if name = commit_file then
    match int_of_string_opt value with
    | Some version -> Ok { acc with version }
    | None -> invalid name value
  else if name = buffer_id_file then
    match Int32.of_string_opt value with
    | Some id -> Ok { acc with buffer_id = Some id }
    | None -> invalid name value
  else Ok acc

let rec fold_fields acc = function
  | [] -> Ok acc
  | f :: rest -> (
    match field acc f with
    | Ok acc -> fold_fields acc rest
    | Error _ as e -> e)

(* Parse the flow from the directory's listing [names] and the [fields]
   read from it. *)
let parse names fields =
  match
    List.find_opt
      (fun n -> not (is_flow_file n || n = "counters" || n = Layout.error_file))
      names
  with
  | Some name -> Error (Printf.sprintf "unknown flow file %S" name)
  | None ->
    let* flat = fold_fields default fields in
    let* actions =
      Action.of_fields
        (List.filter_map
           (fun (name, value) ->
             if is_action name then Some (name, String.trim value) else None)
           fields)
    in
    Ok { flat with actions }

(* One listing, and the flow parsed from it. *)
let read_listing fs ~cred d =
  match Record.read fs ~cred d ~select:is_flow_file with
  | Error e -> ([], Error (Vfs.Errno.message e))
  | Ok (names, fields) -> (names, parse names fields)

let read fs ~cred d = snd (read_listing fs ~cred d)

let update fs ~cred d f =
  let existing, current = read_listing fs ~cred d in
  let* current = current in
  let next = f current in
  match write_over fs ~cred d ~existing next with
  | Error e -> Error (Vfs.Errno.message e)
  | Ok () -> Ok { next with version = next.version + 1 }

let set_error fs ~cred d = function
  | Some msg -> Fs.write_file_at fs ~cred d Layout.error_file msg
  | None -> (
    match Fs.unlink_at fs ~cred d Layout.error_file with
    | Ok () | Error Vfs.Errno.ENOENT -> Ok ()
    | Error _ as e -> e)

let read_reporting fs ~cred d judge =
  let names, flow = read_listing fs ~cred d in
  let verdict = Result.bind flow judge in
  let report =
    match verdict with
    | Error msg -> set_error fs ~cred d (Some msg)
    | Ok _ when List.mem Layout.error_file names -> set_error fs ~cred d None
    | Ok _ -> Ok ()
  in
  (verdict, report)

let read_error ?flow fs ~cred d =
  match Fs.read_file_at fs ~cred d (file ?flow Layout.error_file) with
  | Ok msg -> Ok (Some msg)
  | Error Vfs.Errno.ENOENT -> Ok None
  | Error _ as e -> e

let read_version ?flow fs ~cred d =
  match Fs.read_file_at fs ~cred d (file ?flow commit_file) with
  | Ok v -> Ok (int_of_string_opt (String.trim v))
  | Error Vfs.Errno.ENOENT -> Ok None
  | Error _ as e -> e

let clear_buffer_id fs ~cred d = Fs.unlink_at fs ~cred d buffer_id_file

let counters_file ?flow name = file ?flow ("counters/" ^ name)

let read_counters ?flow fs ~cred d =
  let count name = Record.required Int64.of_string_opt (counters_file ?flow name) in
  match Record.read_named fs ~cred d [ counters_file ?flow "packets"; counters_file ?flow "bytes" ] with
  | Ok fields -> (
    match count "packets" fields, count "bytes" fields with
    | Some packets, Some bytes -> Some (packets, bytes)
    | _ -> None)
  | Error _ -> None

let write_counters ?flow fs ~cred d ~packets ~bytes ~duration_s =
  let fields =
    List.map
      (fun (name, v) -> (counters_file ?flow name, v))
      [ "packets", Int64.to_string packets; "bytes", Int64.to_string bytes;
        "duration", string_of_int duration_s ]
  in
  (* The schema gives every flow a counters/ directory; make it only
     when the first write finds it missing. *)
  match Record.write fs ~cred d fields with
  | Error Vfs.Errno.ENOENT ->
    let* () =
      match Fs.mkdir_at fs ~cred d (file ?flow "counters") with
      | Ok () | Error Vfs.Errno.EEXIST -> Ok ()
      | Error _ as e -> e
    in
    Record.write fs ~cred d fields
  | r -> r

let is_news ~version ~ino ~seen_version ~seen_ino =
  version > seen_version || ino <> seen_ino

let equal_config a b =
  Of_match.equal a.of_match b.of_match
  && List.equal Action.equal a.actions b.actions
  && a.priority = b.priority
  && a.idle_timeout = b.idle_timeout
  && a.hard_timeout = b.hard_timeout
  && Int64.equal a.cookie b.cookie

let pp ppf t =
  Format.fprintf ppf "flow[%a pri=%d v%d -> %a]" Of_match.pp t.of_match
    t.priority t.version Action.pp_list t.actions
