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

let is_field_file name =
  (String.length name > 6 && String.sub name 0 6 = "match.")
  || (String.length name > 7 && String.sub name 0 7 = "action.")

(* A file of the flow: [name] in the held flow directory or, with
   [flow], in the flow [flow] below a handle on its flows/ directory. *)
let file ?flow name =
  match flow with None -> name | Some flow -> String.concat "/" [ flow; name ]

let counters_file ?flow name = file ?flow ("counters/" ^ name)

(* Write every field file, removing the stale match/action files of
   [existing] (the directory's listing) first so a narrower rewrite
   wins, then the incremented version: the commit point. *)
let write_over fs ~cred d ~existing t =
  let put name value = Fs.write_file_at fs ~cred d name value in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        if is_field_file name then Fs.unlink_at fs ~cred d name else Ok ())
      (Ok ()) existing
  in
  let* () =
    List.fold_left
      (fun acc (field, value) ->
        let* () = acc in
        put ("match." ^ field) value)
      (Ok ())
      (Of_match.to_fields t.of_match)
  in
  let* () =
    List.fold_left
      (fun acc (name, value) ->
        let* () = acc in
        put name value)
      (Ok ())
      (Action.to_fields t.actions)
  in
  let* () = put Layout.priority_file (string_of_int t.priority) in
  let* () = put Layout.idle_timeout_file (string_of_int t.idle_timeout) in
  let* () = put Layout.hard_timeout_file (string_of_int t.hard_timeout) in
  let* () = put Layout.cookie_file (Printf.sprintf "0x%Lx" t.cookie) in
  let* () =
    match t.buffer_id with
    | Some id -> put buffer_id_file (Int32.to_string id)
    | None -> Ok ()
  in
  put commit_file (string_of_int (t.version + 1))

let write fs ~cred d t = write_over fs ~cred d ~existing:[] t

let parse_int_file name content =
  match int_of_string_opt (String.trim content) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: invalid integer %S" name content)

(* Parse the flow from the directory's listing [names]. *)
let parse fs ~cred d names =
  let get name =
    match Fs.read_file_at fs ~cred d name with
    | Ok v -> Ok (String.trim v)
    | Error e -> Error (Printf.sprintf "%s: %s" name (Vfs.Errno.message e))
  in
  let rec go acc = function
    | [] -> Ok acc
    | name :: rest ->
      let continue acc = go acc rest in
      if name = "counters" || name = Layout.error_file then continue acc
      else if String.length name > 6 && String.sub name 0 6 = "match." then
        let field = String.sub name 6 (String.length name - 6) in
        let* value = get name in
        let* m = Of_match.set_field acc.of_match field value in
        continue { acc with of_match = m }
      else if String.length name > 7 && String.sub name 0 7 = "action." then
        continue acc (* parsed together below, to honour sequencing *)
      else if name = Layout.priority_file then
        let* value = get name in
        let* priority = parse_int_file name value in
        continue { acc with priority }
      else if name = Layout.idle_timeout_file then
        let* value = get name in
        let* idle_timeout = parse_int_file name value in
        continue { acc with idle_timeout }
      else if name = Layout.hard_timeout_file then
        let* value = get name in
        let* hard_timeout = parse_int_file name value in
        continue { acc with hard_timeout }
      else if name = Layout.cookie_file then
        let* value = get name in
        (match Int64.of_string_opt value with
        | Some cookie -> continue { acc with cookie }
        | None -> Error (Printf.sprintf "cookie: invalid value %S" value))
      else if name = commit_file then
        let* value = get name in
        let* version = parse_int_file name value in
        continue { acc with version }
      else if name = buffer_id_file then
        let* value = get name in
        (match Int32.of_string_opt value with
        | Some id -> continue { acc with buffer_id = Some id }
        | None -> Error (Printf.sprintf "buffer_id: invalid value %S" value))
      else Error (Printf.sprintf "unknown flow file %S" name)
  in
  (* Action files must be parsed together to get ordering right. *)
  let* flat = go { default with actions = [] } names in
  let action_files =
    List.filter
      (fun n -> String.length n > 7 && String.sub n 0 7 = "action.")
      names
  in
  let* action_fields =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        let* value = get name in
        Ok ((name, value) :: acc))
      (Ok []) action_files
  in
  let* actions = Action.of_fields (List.rev action_fields) in
  Ok { flat with actions }

(* One listing, and the flow parsed from it. *)
let read_listing fs ~cred d =
  match Fs.readdir_at fs ~cred d with
  | Error e -> ([], Error (Vfs.Errno.message e))
  | Ok names -> (names, parse fs ~cred d names)

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

let read_counters ?flow fs ~cred d =
  let read name =
    match Fs.read_file_at fs ~cred d (counters_file ?flow name) with
    | Ok v -> Int64.of_string_opt (String.trim v)
    | Error _ -> None
  in
  match read "packets", read "bytes" with
  | Some packets, Some bytes -> Some (packets, bytes)
  | _ -> None

let write_counters ?flow fs ~cred d ~packets ~bytes ~duration_s =
  let put name v = Fs.write_file_at fs ~cred d (counters_file ?flow name) v in
  (* The schema gives every flow a counters/ directory; make it only
     when the first write finds it missing. *)
  let* () =
    match put "packets" (Int64.to_string packets) with
    | Error Vfs.Errno.ENOENT ->
      let* () =
        match Fs.mkdir_at fs ~cred d (file ?flow "counters") with
        | Ok () | Error Vfs.Errno.EEXIST -> Ok ()
        | Error _ as e -> e
      in
      put "packets" (Int64.to_string packets)
    | r -> r
  in
  let* () = put "bytes" (Int64.to_string bytes) in
  put "duration" (string_of_int duration_s)

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
