module Path = Vfs.Path
module Fs = Vfs.Fs

type fields = (string * string) list

let ( let* ) = Result.bind

let rec write fs ~cred d = function
  | [] -> Ok ()
  | (name, value) :: rest ->
    let* () = Fs.write_file_at fs ~cred d name value in
    write fs ~cred d rest

(* One read per name [keep] selects, in order; a missing file is left
   out. *)
let read_kept fs ~cred d ~keep names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest when not (keep name) -> go acc rest
    | name :: rest -> (
      match Fs.read_file_at fs ~cred d name with
      | Ok value -> go ((name, value) :: acc) rest
      | Error Vfs.Errno.ENOENT -> go acc rest
      | Error _ as e -> e)
  in
  go [] names

let read_named fs ~cred d names = read_kept fs ~cred d ~keep:(fun _ -> true) names

let read fs ~cred d ~select =
  let* names = Fs.readdir_at fs ~cred d in
  let* fields = read_kept fs ~cred d ~keep:select names in
  Ok (names, fields)

let required conv name fields =
  Option.bind (List.assoc_opt name fields) (fun v -> conv (String.trim v))

let optional conv name fields =
  match List.assoc_opt name fields with
  | None -> Some None
  | Some v -> Option.map Option.some (conv (String.trim v))

let post fs ~cred spool ~seq ?owner fields =
  let dir = Path.child spool (string_of_int seq) in
  let* () = Fs.mkdir fs ~cred dir in
  let* () =
    match owner with
    | Some (uid, gid) -> Fs.chown fs ~cred dir ~uid ~gid
    | None -> Ok ()
  in
  let* d = Fs.opendir fs ~cred dir in
  write fs ~cred d fields

let take fs ~cred spool ~select ~parse ~on_error =
  let* names = Fs.readdir fs ~cred spool in
  List.filter_map (fun n -> Option.map (fun seq -> (seq, n)) (int_of_string_opt n)) names
  |> List.sort compare
  |> List.filter_map (fun (seq, name) ->
         let dir = Path.child spool name in
         let parsed =
           let* d = Fs.opendir fs ~cred dir in
           let* _, fields = read fs ~cred d ~select in
           Option.to_result ~none:Vfs.Errno.EINVAL (parse ~seq fields)
         in
         match Fs.rmdir ~recursive:true fs ~cred dir, parsed with
         | Ok (), Ok v -> Some v
         | Error e, _ | Ok (), Error e -> on_error e; None)
  |> Result.ok
