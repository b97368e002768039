module Path = Vfs.Path
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

let write fs ~cred path t =
  let put name value = Fs.write_file fs ~cred (Path.child path name) value in
  (* Remove stale match/action files so a narrower rewrite wins. *)
  let* existing = Fs.readdir fs ~cred path in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        let stale =
          (String.length name > 6 && String.sub name 0 6 = "match.")
          || (String.length name > 7 && String.sub name 0 7 = "action.")
        in
        if stale then Fs.unlink fs ~cred (Path.child path name) else Ok ())
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
    | Some id -> put "buffer_id" (Int32.to_string id)
    | None -> Ok ()
  in
  put Layout.version_file (string_of_int (t.version + 1))

let parse_int_file name content =
  match int_of_string_opt (String.trim content) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: invalid integer %S" name content)

let read fs ~cred path =
  match Fs.readdir fs ~cred path with
  | Error e -> Error (Vfs.Errno.message e)
  | Ok names ->
    let get name =
      match Fs.read_file fs ~cred (Path.child path name) with
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
        else if name = Layout.version_file then
          let* value = get name in
          let* version = parse_int_file name value in
          continue { acc with version }
        else if name = "buffer_id" then
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

let update fs ~cred path f =
  let* current = read fs ~cred path in
  let next = f current in
  match write fs ~cred path next with
  | Error e -> Error (Vfs.Errno.message e)
  | Ok () -> Ok { next with version = next.version + 1 }

let read_version fs ~cred path =
  match Fs.read_file fs ~cred (Path.child path Layout.version_file) with
  | Ok v -> int_of_string_opt (String.trim v)
  | Error _ -> None

let read_counters fs ~cred path =
  let counters = Path.child path "counters" in
  let read file =
    match Fs.read_file fs ~cred (Path.child counters file) with
    | Ok v -> Int64.of_string_opt (String.trim v)
    | Error _ -> None
  in
  match read "packets", read "bytes" with
  | Some packets, Some bytes -> Some (packets, bytes)
  | _ -> None

let write_counters fs ~cred path ~packets ~bytes ~duration_s =
  let counters = Path.child path "counters" in
  let* () =
    match Fs.mkdir fs ~cred counters with
    | Ok () | Error Vfs.Errno.EEXIST -> Ok ()
    | Error _ as e -> e
  in
  let* () =
    Fs.write_file fs ~cred (Path.child counters "packets") (Int64.to_string packets)
  in
  let* () =
    Fs.write_file fs ~cred (Path.child counters "bytes") (Int64.to_string bytes)
  in
  Fs.write_file fs ~cred (Path.child counters "duration") (string_of_int duration_s)

let set_error fs ~cred path = function
  | Some msg -> Fs.write_file fs ~cred (Path.child path Layout.error_file) msg
  | None -> (
    match Fs.unlink fs ~cred (Path.child path Layout.error_file) with
    | Ok () | Error Vfs.Errno.ENOENT -> Ok ()
    | Error _ as e -> e)

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
