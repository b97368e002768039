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

let commit_file = Schema.version

let is_flow_file = Schema.is_field Schema.flow

let is_match = Schema.in_family Schema.match_prefix

let is_action = Schema.in_family Schema.action_prefix

(* A static spec sets the match, the actions, the priority and the
   timeouts. The version is the commit's, and a buffer id names a
   packet that one switch holds, so a spec written to every switch
   must not carry one. *)
let is_spec_file name =
  is_match name || is_action name
  || List.mem name [ Schema.priority; Schema.idle_timeout; Schema.hard_timeout ]

(* A file of the flow: [name] in the held flow directory or, with
   [flow], in the flow [flow] below a handle on its flows/ directory. *)
let file ?flow name =
  match flow with None -> name | Some flow -> String.concat "/" [ flow; name ]

(* Each scalar file: its text in a flow ([None]: the file is not
   written) and the flow its trimmed text makes of one. *)
let scalars =
  let int get set =
    ( (fun t -> Some (string_of_int (get t))),
      fun t v -> match int_of_string_opt v with Some n -> Some (set t n) | None -> None )
  in
  [ Schema.priority, int (fun t -> t.priority) (fun t priority -> { t with priority });
    ( Schema.idle_timeout,
      int (fun t -> t.idle_timeout) (fun t idle_timeout -> { t with idle_timeout }) );
    ( Schema.hard_timeout,
      int (fun t -> t.hard_timeout) (fun t hard_timeout -> { t with hard_timeout }) );
    ( Schema.cookie,
      ( (fun t -> Some (Printf.sprintf "0x%Lx" t.cookie)),
        fun t v ->
          match Int64.of_string_opt v with Some cookie -> Some { t with cookie } | None -> None ) );
    ( Schema.buffer_id,
      ( (fun t -> Option.map Int32.to_string t.buffer_id),
        fun t v ->
          match Int32.of_string_opt v with
          | Some id -> Some { t with buffer_id = Some id }
          | None -> None ) );
    Schema.version, int (fun t -> t.version) (fun t version -> { t with version }) ]

(* The flow's files in the schema's commit order: the match and action
   families, then the scalars, [version] last. *)
let to_fields t =
  List.fold_right
    (fun f acc ->
      if f = Schema.match_prefix then
        List.fold_right
          (fun (field, value) acc -> (f ^ field, value) :: acc)
          (Of_match.to_fields t.of_match) acc
      else if f = Schema.action_prefix then Action.to_fields t.actions @ acc
      else
        match List.assoc_opt f scalars with
        | Some (print, _) -> ( match print t with Some v -> (f, v) :: acc | None -> acc)
        | None -> acc)
    Schema.flow.fields []

(* Write every field file, removing the stale match/action files of
   [existing] (the directory's listing) first so a narrower rewrite
   wins, then the incremented version: the commit point. *)
let write_over fs ~cred d ~existing t =
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        if is_match name || is_action name then Fs.unlink_at fs ~cred d name else Ok ())
      (Ok ()) existing
  in
  Record.write fs ~cred d (to_fields { t with version = t.version + 1 })

let write fs ~cred d t = write_over fs ~cred d ~existing:[] t

(* One field file's value onto [acc]; action files are parsed together
   in [of_fields], to honour their sequencing. *)
let field acc (name, value) =
  let value = String.trim value in
  if is_match name then
    let p = String.length Schema.match_prefix in
    match Of_match.set_field acc.of_match (String.sub name p (String.length name - p)) value with
    | Ok of_match -> Ok { acc with of_match }
    | Error _ as e -> e
  else
    match List.assoc_opt name scalars with
    | None -> Ok acc
    | Some (_, parse) -> (
      match parse acc value with
      | Some t -> Ok t
      | None -> Error (Printf.sprintf "%s: invalid value %S" name value))

let rec fold_fields acc = function
  | [] -> Ok acc
  | f :: rest -> (
    match field acc f with
    | Ok acc -> fold_fields acc rest
    | Error _ as e -> e)

let of_fields fields =
  let* flat = fold_fields default fields in
  let* actions =
    Action.of_fields
      (List.filter_map
         (fun (name, value) ->
           if is_action name then Some (name, String.trim value) else None)
         fields)
  in
  Ok { flat with actions }

(* Parse the flow from the directory's listing [names] and the [fields]
   read from it. *)
let parse names fields =
  let known n =
    is_flow_file n || List.mem n Schema.flow.state || List.mem n Schema.flow.makes
  in
  match List.find_opt (fun n -> not (known n)) names with
  | Some name -> Error (Printf.sprintf "unknown flow file %S" name)
  | None -> of_fields fields

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
  | Some msg -> Fs.write_file_at fs ~cred d Schema.error msg
  | None -> (
    match Fs.unlink_at fs ~cred d Schema.error with
    | Ok () | Error Vfs.Errno.ENOENT -> Ok ()
    | Error _ as e -> e)

let read_reporting fs ~cred d judge =
  let names, flow = read_listing fs ~cred d in
  let verdict = Result.bind flow judge in
  let report =
    match verdict with
    | Error msg -> set_error fs ~cred d (Some msg)
    | Ok _ when List.mem Schema.error names -> set_error fs ~cred d None
    | Ok _ -> Ok ()
  in
  (verdict, report)

let read_error ?flow fs ~cred d =
  match Fs.read_file_at fs ~cred d (file ?flow Schema.error) with
  | Ok msg -> Ok (Some msg)
  | Error Vfs.Errno.ENOENT -> Ok None
  | Error _ as e -> e

let read_version ?flow fs ~cred d =
  match Fs.read_file_at fs ~cred d (file ?flow commit_file) with
  | Ok v -> Ok (int_of_string_opt (String.trim v))
  | Error Vfs.Errno.ENOENT -> Ok None
  | Error _ as e -> e

let clear_buffer_id fs ~cred d = Fs.unlink_at fs ~cred d Schema.buffer_id

let counters_file ?flow name =
  file ?flow (Schema.flow_counters.name ^ "/" ^ name)

let read_counters ?flow fs ~cred d =
  let count name = Record.required Int64.of_string_opt (counters_file ?flow name) in
  match
    Record.read_named fs ~cred d
      [ counters_file ?flow Schema.packets; counters_file ?flow Schema.bytes ]
  with
  | Ok fields -> (
    match count Schema.packets fields, count Schema.bytes fields with
    | Some packets, Some bytes -> Some (packets, bytes)
    | _ -> None)
  | Error _ -> None

let write_counters ?flow fs ~cred d ~packets ~bytes ~duration_s =
  let fields =
    List.map2
      (fun name v -> (counters_file ?flow name, v))
      Schema.flow_counters.fields
      [ Int64.to_string packets; Int64.to_string bytes; string_of_int duration_s ]
  in
  (* The schema gives every flow a counters/ directory; make it only
     when the first write finds it missing. *)
  match Record.write fs ~cred d fields with
  | Error Vfs.Errno.ENOENT ->
    let* () =
      match Fs.mkdir_at fs ~cred d (file ?flow Schema.flow_counters.name) with
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
