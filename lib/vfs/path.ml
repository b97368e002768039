type t = string list (* components from the root; [] is "/" *)

let root = []

let valid_name name =
  name <> "" && name <> "." && name <> ".."
  && String.length name <= 255
  && not (String.contains name '/')
  && not (String.contains name '\000')

let normalize comps =
  (* Lexical resolution of "." and ".."; ".." at the root stays at the
     root, as in POSIX. *)
  let rec go acc = function
    | [] -> List.rev acc
    | "" :: rest | "." :: rest -> go acc rest
    | ".." :: rest -> (match acc with [] -> go [] rest | _ :: tl -> go tl rest)
    | c :: rest -> go (c :: acc) rest
  in
  go [] comps

let of_string s =
  if s = "" then Error Errno.EINVAL
  else
    let comps = String.split_on_char '/' s in
    let comps = normalize comps in
    if List.exists (fun c -> String.length c > 255) comps then
      Error Errno.ENAMETOOLONG
    else if List.exists (fun c -> String.contains c '\000') comps then
      Error Errno.EINVAL
    else Ok comps

let of_string_exn s =
  match of_string s with
  | Ok p -> p
  | Error e -> invalid_arg (Printf.sprintf "Path.of_string_exn %S: %s" s (Errno.to_string e))

let to_string = function
  | [] -> "/"
  | comps -> "/" ^ String.concat "/" comps

let components p = p

let of_components comps = normalize comps

let child p name = p @ [ name ]

let parent = function
  | [] -> None
  | comps ->
    let rec drop_last = function
      | [] | [ _ ] -> []
      | c :: rest -> c :: drop_last rest
    in
    Some (drop_last comps)

let rec basename = function
  | [] -> None
  | [ last ] -> Some last
  | _ :: rest -> basename rest

let append a b = a @ b

let rec is_prefix a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> String.equal x y && is_prefix xs ys

let rec strip_prefix ~prefix p =
  match prefix, p with
  | [], p -> Some p
  | _, [] -> None
  | x :: xs, y :: ys -> if String.equal x y then strip_prefix ~prefix:xs ys else None

let equal a b = List.equal String.equal a b

let compare a b = List.compare String.compare a b

let pp ppf p = Format.pp_print_string ppf (to_string p)
