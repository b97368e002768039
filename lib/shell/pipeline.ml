type result = { code : int; out : string; err : string }

(* --- tokenizer -------------------------------------------------------------- *)

let split_words input =
  let buf = Buffer.create 16 in
  let words = ref [] in
  let in_word = ref false in
  let push () =
    if !in_word then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf;
      in_word := false
    end
  in
  let n = String.length input in
  let rec go i =
    if i >= n then
      if !in_word then Ok () else Ok ()
    else
      match input.[i] with
      | '#' when not !in_word -> Ok () (* comment to end of line *)
      | ' ' | '\t' ->
        push ();
        go (i + 1)
      | '\'' ->
        let rec scan j =
          if j >= n then Error "unterminated single quote"
          else if input.[j] = '\'' then begin
            in_word := true;
            Ok (j + 1)
          end
          else begin
            Buffer.add_char buf input.[j];
            scan (j + 1)
          end
        in
        Result.bind (scan (i + 1)) go
      | '"' ->
        let rec scan j =
          if j >= n then Error "unterminated double quote"
          else if input.[j] = '"' then begin
            in_word := true;
            Ok (j + 1)
          end
          else begin
            Buffer.add_char buf input.[j];
            scan (j + 1)
          end
        in
        Result.bind (scan (i + 1)) go
      | c ->
        Buffer.add_char buf c;
        in_word := true;
        go (i + 1)
  in
  match go 0 with
  | Error e -> Error e
  | Ok () ->
    push ();
    Ok (List.rev !words)

(* --- structure -------------------------------------------------------------- *)

type redirect = { stdin_from : string option; stdout_to : (string * bool) option }
(* (path, append) *)

type stage = { argv : string list; redirect : redirect }

let split_on_word sep words =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | w :: rest when w = sep -> go [] (List.rev current :: acc) rest
    | w :: rest -> go (w :: current) acc rest
  in
  go [] [] words

let parse_stage words =
  let rec go argv redirect = function
    | [] -> Ok { argv = List.rev argv; redirect }
    | ">" :: path :: rest ->
      go argv { redirect with stdout_to = Some (path, false) } rest
    | ">>" :: path :: rest ->
      go argv { redirect with stdout_to = Some (path, true) } rest
    | "<" :: path :: rest -> go argv { redirect with stdin_from = Some path } rest
    | (">" | ">>" | "<") :: [] -> Error "missing redirection target"
    | w :: rest -> go (w :: argv) redirect rest
  in
  go [] { stdin_from = None; stdout_to = None } words

let expand_operands env argv =
  match argv with
  | [] -> []
  | cmd :: rest -> cmd :: List.concat_map (Glob.expand env) rest

let run_pipeline env stages =
  let rec go stdin = function
    | [] -> { code = 0; out = stdin; err = "" }
    | stage :: rest ->
      let failed ~err path e =
        { Cmd.code = 1; out = "";
          err = err ^ Printf.sprintf "yash: %s: %s\n" path (Vfs.Errno.message e) }
      in
      let run stdin =
        let argv = expand_operands env stage.argv in
        let r = Cmd.exec env ~argv ~stdin in
        match stage.redirect.stdout_to with
        | None -> r
        | Some (path, append) -> (
          match
            (if append then Vfs.Fs.append_file else Vfs.Fs.write_file)
              env.Env.fs ~cred:env.Env.cred (Env.resolve env path) r.Cmd.out
          with
          | Ok () -> { r with Cmd.out = "" }
          | Error e -> failed ~err:r.Cmd.err path e)
      in
      (* As in bash, a stdin redirect that fails skips the command. *)
      let r =
        match stage.redirect.stdin_from with
        | None -> run stdin
        | Some path -> (
          match
            Vfs.Fs.read_file env.Env.fs ~cred:env.Env.cred (Env.resolve env path)
          with
          | Ok data -> run data
          | Error e -> failed ~err:"" path e)
      in
      if rest = [] then { code = r.Cmd.code; out = r.Cmd.out; err = r.Cmd.err }
      else begin
        let tail = go r.Cmd.out rest in
        { tail with err = r.Cmd.err ^ tail.err }
      end
  in
  go "" stages

let run_command env words =
  match split_on_word "|" words with
  | [] -> { code = 0; out = ""; err = "" }
  | stage_words ->
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | w :: rest -> (
        match parse_stage w with
        | Ok s -> parse (s :: acc) rest
        | Error _ as e -> e)
    in
    (match parse [] stage_words with
    | Error e -> { code = 2; out = ""; err = "yash: " ^ e ^ "\n" }
    | Ok stages -> run_pipeline env (List.filter (fun s -> s.argv <> []) stages))

let run env line =
  match split_words line with
  | Error e -> { code = 2; out = ""; err = "yash: " ^ e ^ "\n" }
  | Ok [] -> { code = 0; out = ""; err = "" }
  | Ok words ->
    (* "&&" and ";" sequencing. *)
    let chunks =
      split_on_word ";" words |> List.concat_map (fun c -> split_on_word "&&" c)
    in
    List.fold_left
      (fun acc chunk ->
        if acc.code <> 0 && List.mem "&&" words then acc
        else begin
          let r = run_command env chunk in
          { code = r.code; out = acc.out ^ r.out; err = acc.err ^ r.err }
        end)
      { code = 0; out = ""; err = "" }
      (List.filter (fun c -> c <> []) chunks)

let run_script env script =
  String.split_on_char '\n' script
  |> List.fold_left
       (fun acc line ->
         if acc.code <> 0 then acc
         else begin
           let r = run env line in
           { code = r.code; out = acc.out ^ r.out; err = acc.err ^ r.err }
         end)
       { code = 0; out = ""; err = "" }
