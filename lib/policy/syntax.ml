module A = Openflow.Action
module M = Openflow.Of_match

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | LPAREN
  | RPAREN
  | SEMI
  | BAR
  | BARBAR
  | AMPAMP
  | BANG
  | EQ
  | ASSIGN
  | WORD of string

let token_to_string = function
  | LPAREN -> "("
  | RPAREN -> ")"
  | SEMI -> ";"
  | BAR -> "|"
  | BARBAR -> "||"
  | AMPAMP -> "&&"
  | BANG -> "!"
  | EQ -> "="
  | ASSIGN -> ":="
  | WORD w -> w

(* Word characters cover every value form the flow-file schema uses:
   MACs (colons), CIDR prefixes (dots, slash), hex dl_type. A ':'
   immediately followed by '=' ends the word so `dl_vlan:=10` lexes as
   an assignment, not one word. *)
let is_word_char s i =
  let c = s.[i] in
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '/'
  || (c = ':' && not (i + 1 < String.length s && s.[i + 1] = '='))

let lex src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match src.[i] with
      | ' ' | '\t' | '\r' | '\n' -> go (i + 1) acc
      | '#' ->
          let j = try String.index_from src i '\n' with Not_found -> n in
          go j acc
      | '(' -> go (i + 1) (LPAREN :: acc)
      | ')' -> go (i + 1) (RPAREN :: acc)
      | ';' -> go (i + 1) (SEMI :: acc)
      | '=' -> go (i + 1) (EQ :: acc)
      | '!' -> go (i + 1) (BANG :: acc)
      | '|' when i + 1 < n && src.[i + 1] = '|' -> go (i + 2) (BARBAR :: acc)
      | '|' -> go (i + 1) (BAR :: acc)
      | '&' when i + 1 < n && src.[i + 1] = '&' -> go (i + 2) (AMPAMP :: acc)
      | ':' when i + 1 < n && src.[i + 1] = '=' -> go (i + 2) (ASSIGN :: acc)
      | _ when is_word_char src i ->
          let j = ref i in
          while !j < n && is_word_char src !j do
            incr j
          done;
          go !j (WORD (String.sub src i (!j - i)) :: acc)
      | c -> Error (Fmt.str "unexpected character %C at offset %d" c i)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent over a token array)                      *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type stream = { toks : token array; mutable pos : int }

let peek s = if s.pos < Array.length s.toks then Some s.toks.(s.pos) else None
let advance s = s.pos <- s.pos + 1

let expect s tok what =
  match peek s with
  | Some t when t = tok -> advance s
  | Some t ->
      raise (Parse_error (Fmt.str "expected %s, got %S" what (token_to_string t)))
  | None -> raise (Parse_error (Fmt.str "expected %s, got end of input" what))

let word s what =
  match peek s with
  | Some (WORD w) ->
      advance s;
      w
  | Some t ->
      raise (Parse_error (Fmt.str "expected %s, got %S" what (token_to_string t)))
  | None -> raise (Parse_error (Fmt.str "expected %s, got end of input" what))

let int_word s what =
  let w = word s what in
  match int_of_string_opt w with
  | Some n -> n
  | None -> raise (Parse_error (Fmt.str "expected %s, got %S" what w))

(* The rewrite field names map onto Action.parse_one kinds. *)
let mod_kind_of_field = function
  | "dl_src" -> Some "set_dl_src"
  | "dl_dst" -> Some "set_dl_dst"
  | "dl_vlan" -> Some "set_vlan"
  | "dl_vlan_pcp" -> Some "set_vlan_pcp"
  | "nw_src" -> Some "set_nw_src"
  | "nw_dst" -> Some "set_nw_dst"
  | "nw_tos" -> Some "set_nw_tos"
  | "tp_src" -> Some "set_tp_src"
  | "tp_dst" -> Some "set_tp_dst"
  | _ -> None

let rec parse_pred s =
  let p = parse_conj s in
  match peek s with
  | Some BARBAR ->
      advance s;
      Ir.Or (p, parse_pred s)
  | _ -> p

and parse_conj s =
  let p = parse_term s in
  match peek s with
  | Some AMPAMP ->
      advance s;
      Ir.And (p, parse_conj s)
  | _ -> p

and parse_term s =
  match peek s with
  | Some BANG ->
      advance s;
      Ir.Not (parse_term s)
  | Some LPAREN ->
      advance s;
      let p = parse_pred s in
      expect s RPAREN "`)`";
      p
  | Some (WORD "true") ->
      advance s;
      Ir.True
  | Some (WORD "false") ->
      advance s;
      Ir.False
  | Some (WORD f) -> (
      advance s;
      expect s EQ (Fmt.str "`=` after match field %S" f);
      let v = word s (Fmt.str "value for match field %S" f) in
      match M.set_field M.any f v with
      | Ok m -> Ir.Test m
      | Error e -> raise (Parse_error e))
  | Some t ->
      raise
        (Parse_error (Fmt.str "expected predicate, got %S" (token_to_string t)))
  | None -> raise (Parse_error "expected predicate, got end of input")

(* Right-nested And/Or match the left-to-right reading order; eval is
   unaffected (&&/|| are associative under eval_pred). *)

let rec parse_policy s =
  let p = parse_seq s in
  match peek s with
  | Some BAR ->
      advance s;
      Ir.Par (p, parse_policy s)
  | _ -> p

and parse_seq s =
  let p = parse_atom s in
  match peek s with
  | Some SEMI ->
      advance s;
      Ir.Seq (p, parse_atom_seq s)
  | _ -> p

and parse_atom_seq s =
  (* continuation of a `;` chain: right-nested like the predicates *)
  let p = parse_atom s in
  match peek s with
  | Some SEMI ->
      advance s;
      Ir.Seq (p, parse_atom_seq s)
  | _ -> p

and parse_atom s =
  match peek s with
  | Some LPAREN ->
      advance s;
      let p = parse_policy s in
      expect s RPAREN "`)`";
      p
  | Some (WORD kw) -> (
      advance s;
      match kw with
      | "id" -> Ir.id
      | "drop" -> Ir.drop
      | "flood" -> Ir.Fwd A.Flood
      | "all" -> Ir.Fwd A.All
      | "inport" | "in_port" -> Ir.Fwd A.In_port
      | "controller" -> (
          match peek s with
          | Some LPAREN ->
              advance s;
              let n = int_word s "max-bytes for controller(...)" in
              expect s RPAREN "`)`";
              Ir.Fwd (A.Controller n)
          | _ -> Ir.Fwd (A.Controller 0))
      | "fwd" ->
          expect s LPAREN "`(` after fwd";
          let n = int_word s "port number for fwd(...)" in
          expect s RPAREN "`)`";
          if n <= 0 then
            raise (Parse_error (Fmt.str "fwd(%d): port must be positive" n));
          Ir.Fwd (A.Physical n)
      | "filter" -> Ir.Filter (parse_pred s)
      | "if" ->
          let pr = parse_pred s in
          (match peek s with
          | Some (WORD "then") -> advance s
          | _ -> raise (Parse_error "expected `then` after if-predicate"));
          let p = parse_atom s in
          (match peek s with
          | Some (WORD "else") -> advance s
          | _ -> raise (Parse_error "expected `else` after then-branch"));
          let q = parse_atom s in
          Ir.Ite (pr, p, q)
      | f -> (
          match mod_kind_of_field f with
          | Some kind -> (
              expect s ASSIGN (Fmt.str "`:=` after rewrite field %S" f);
              let v = word s (Fmt.str "value for rewrite field %S" f) in
              match A.parse_one ~kind v with
              | Ok a -> Ir.Mod a
              | Error e -> raise (Parse_error e))
          | None ->
              raise
                (Parse_error
                   (Fmt.str
                      "unknown policy form %S (not a keyword or rewrite field)"
                      f))))
  | Some t ->
      raise (Parse_error (Fmt.str "expected policy, got %S" (token_to_string t)))
  | None -> raise (Parse_error "expected policy, got end of input")

let parse src =
  match lex src with
  | Error e -> Error e
  | Ok [] -> Error "empty policy (write `drop` to drop everything)"
  | Ok toks -> (
      let s = { toks = Array.of_list toks; pos = 0 } in
      match parse_policy s with
      | p -> (
          match peek s with
          | None -> Ok p
          | Some t ->
              Error (Fmt.str "trailing input at %S" (token_to_string t)))
      | exception Parse_error e -> Error e)

(* ------------------------------------------------------------------ *)
(* Canonical printer                                                  *)
(* ------------------------------------------------------------------ *)

let field_of_mod (a : A.t) =
  match a with
  | Set_dl_src m -> ("dl_src", Packet.Mac.to_string m)
  | Set_dl_dst m -> ("dl_dst", Packet.Mac.to_string m)
  | Set_vlan v -> ("dl_vlan", string_of_int v)
  | Set_vlan_pcp v -> ("dl_vlan_pcp", string_of_int v)
  | Set_nw_src a -> ("nw_src", Packet.Ipv4_addr.to_string a)
  | Set_nw_dst a -> ("nw_dst", Packet.Ipv4_addr.to_string a)
  | Set_nw_tos v -> ("nw_tos", string_of_int v)
  | Set_tp_src v -> ("tp_src", string_of_int v)
  | Set_tp_dst v -> ("tp_dst", string_of_int v)
  | Output _ | Enqueue _ | Strip_vlan ->
      invalid_arg "Policy.Syntax: Mod holds a non-rewrite action"

(* Predicate levels: Or = 0, And = 1, unary = 2. *)
let rec pp_pred lvl buf p =
  let parens need body =
    if need then (
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')')
    else body ()
  in
  match p with
  | Ir.True -> Buffer.add_string buf "true"
  | Ir.False -> Buffer.add_string buf "false"
  | Ir.Not a ->
      Buffer.add_char buf '!';
      pp_pred 2 buf a
  | Ir.Or (a, b) ->
      parens (lvl > 0) (fun () ->
          pp_pred 1 buf a;
          Buffer.add_string buf " || ";
          pp_pred 0 buf b)
  | Ir.And (a, b) ->
      parens (lvl > 1) (fun () ->
          pp_pred 2 buf a;
          Buffer.add_string buf " && ";
          pp_pred 1 buf b)
  | Ir.Test m -> (
      match M.to_fields m with
      | [] -> Buffer.add_string buf "true"
      | [ (f, v) ] ->
          Buffer.add_string buf f;
          Buffer.add_string buf " = ";
          Buffer.add_string buf v
      | fields ->
          (* conjunction of single-field tests, at And level *)
          parens (lvl > 1) (fun () ->
              List.iteri
                (fun i (f, v) ->
                  if i > 0 then Buffer.add_string buf " && ";
                  Buffer.add_string buf f;
                  Buffer.add_string buf " = ";
                  Buffer.add_string buf v)
                fields))

(* Policy levels: Par = 0, Seq = 1, atom = 2. *)
let rec pp_policy lvl buf (p : Ir.t) =
  let parens need body =
    if need then (
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')')
    else body ()
  in
  match p with
  | Filter True -> Buffer.add_string buf "id"
  | Filter False -> Buffer.add_string buf "drop"
  | Filter pr ->
      Buffer.add_string buf "filter ";
      pp_pred 0 buf pr
  | Fwd (Physical n) -> Buffer.add_string buf (Fmt.str "fwd(%d)" n)
  | Fwd In_port -> Buffer.add_string buf "inport"
  | Fwd Flood -> Buffer.add_string buf "flood"
  | Fwd All -> Buffer.add_string buf "all"
  | Fwd (Controller 0) -> Buffer.add_string buf "controller"
  | Fwd (Controller n) -> Buffer.add_string buf (Fmt.str "controller(%d)" n)
  | Fwd Drop -> Buffer.add_string buf "drop"
  | Mod a ->
      let f, v = field_of_mod a in
      Buffer.add_string buf f;
      Buffer.add_string buf " := ";
      Buffer.add_string buf v
  | Par (a, b) ->
      parens (lvl > 0) (fun () ->
          pp_policy 1 buf a;
          Buffer.add_string buf " | ";
          pp_policy 0 buf b)
  | Seq (a, b) ->
      parens (lvl > 1) (fun () ->
          pp_policy 2 buf a;
          Buffer.add_string buf " ; ";
          pp_policy 1 buf b)
  | Ite (pr, a, b) ->
      Buffer.add_string buf "if ";
      pp_pred 0 buf pr;
      Buffer.add_string buf " then (";
      pp_policy 0 buf a;
      Buffer.add_string buf ") else (";
      pp_policy 0 buf b;
      Buffer.add_char buf ')'

let to_string p =
  let buf = Buffer.create 256 in
  pp_policy 0 buf p;
  Buffer.contents buf
