module P = Packet

type t = {
  in_port : int option;
  dl_src : P.Mac.t option;
  dl_dst : P.Mac.t option;
  dl_vlan : int option;
  dl_vlan_pcp : int option;
  dl_type : int option;
  nw_src : P.Ipv4_addr.Prefix.t option;
  nw_dst : P.Ipv4_addr.Prefix.t option;
  nw_proto : int option;
  nw_tos : int option;
  tp_src : int option;
  tp_dst : int option;
}

let any =
  { in_port = None; dl_src = None; dl_dst = None; dl_vlan = None;
    dl_vlan_pcp = None; dl_type = None; nw_src = None; nw_dst = None;
    nw_proto = None; nw_tos = None; tp_src = None; tp_dst = None }

let exact_of_headers (h : P.Headers.t) =
  { in_port = Some h.in_port;
    dl_src = Some h.dl_src;
    dl_dst = Some h.dl_dst;
    dl_vlan = h.dl_vlan;
    dl_vlan_pcp = h.dl_vlan_pcp;
    dl_type = Some h.dl_type;
    nw_src = Option.map P.Ipv4_addr.Prefix.host h.nw_src;
    nw_dst = Option.map P.Ipv4_addr.Prefix.host h.nw_dst;
    nw_proto = h.nw_proto;
    nw_tos = h.nw_tos;
    tp_src = h.tp_src;
    tp_dst = h.tp_dst }

let field opt value ~eq = match opt with None -> true | Some v -> eq v value

let opt_field opt value ~eq =
  match opt, value with
  | None, _ -> true
  | Some _, None -> false
  | Some v, Some actual -> eq v actual

let matches m (h : P.Headers.t) =
  field m.in_port h.in_port ~eq:Int.equal
  && field m.dl_src h.dl_src ~eq:P.Mac.equal
  && field m.dl_dst h.dl_dst ~eq:P.Mac.equal
  && opt_field m.dl_vlan h.dl_vlan ~eq:Int.equal
  && opt_field m.dl_vlan_pcp h.dl_vlan_pcp ~eq:Int.equal
  && field m.dl_type h.dl_type ~eq:Int.equal
  && opt_field m.nw_src h.nw_src ~eq:(fun p a -> P.Ipv4_addr.Prefix.matches p a)
  && opt_field m.nw_dst h.nw_dst ~eq:(fun p a -> P.Ipv4_addr.Prefix.matches p a)
  && opt_field m.nw_proto h.nw_proto ~eq:Int.equal
  && opt_field m.nw_tos h.nw_tos ~eq:Int.equal
  && opt_field m.tp_src h.tp_src ~eq:Int.equal
  && opt_field m.tp_dst h.tp_dst ~eq:Int.equal

(* Field helpers specialised per type, so the pairwise scans of the
   policy compiler make no closure calls. *)
let sub_int (a : int option) b =
  match a, b with
  | None, _ -> true
  | Some _, None -> false
  | Some x, Some y -> x = y

let sub_mac (a : P.Mac.t option) (b : P.Mac.t option) =
  sub_int (a :> int option) (b :> int option)

let sub_prefix a b =
  match a, b with
  | None, _ -> true
  | Some _, None -> false
  | Some x, Some y -> P.Ipv4_addr.Prefix.subsumes x y

let subsumes a b =
  sub_int a.in_port b.in_port
  && sub_mac a.dl_src b.dl_src
  && sub_mac a.dl_dst b.dl_dst
  && sub_int a.dl_vlan b.dl_vlan
  && sub_int a.dl_vlan_pcp b.dl_vlan_pcp
  && sub_int a.dl_type b.dl_type
  && sub_prefix a.nw_src b.nw_src
  && sub_prefix a.nw_dst b.nw_dst
  && sub_int a.nw_proto b.nw_proto
  && sub_int a.nw_tos b.nw_tos
  && sub_int a.tp_src b.tp_src
  && sub_int a.tp_dst b.tp_dst

(* Two constraints on one field conflict when both are present and no
   value satisfies both; prefixes conflict unless one nests in the
   other. *)
let clash_int (a : int option) b =
  match a, b with Some x, Some y -> x <> y | _ -> false

let clash_mac (a : P.Mac.t option) (b : P.Mac.t option) =
  clash_int (a :> int option) (b :> int option)

let clash_prefix a b =
  match a, b with
  | Some x, Some y -> not (P.Ipv4_addr.Prefix.overlaps x y)
  | _ -> false

let disjoint a b =
  clash_int a.in_port b.in_port
  || clash_mac a.dl_src b.dl_src
  || clash_mac a.dl_dst b.dl_dst
  || clash_int a.dl_vlan b.dl_vlan
  || clash_int a.dl_vlan_pcp b.dl_vlan_pcp
  || clash_int a.dl_type b.dl_type
  || clash_prefix a.nw_src b.nw_src
  || clash_prefix a.nw_dst b.nw_dst
  || clash_int a.nw_proto b.nw_proto
  || clash_int a.nw_tos b.nw_tos
  || clash_int a.tp_src b.tp_src
  || clash_int a.tp_dst b.tp_dst

(* On non-disjoint inputs each field's meet is one of the two sides'
   options, reused as is: only the result record is allocated. *)
let meet_scalar a b = match a with None -> b | Some _ -> a

let meet_prefix a b =
  match a, b with
  | None, x | x, None -> x
  | Some x, Some y -> if P.Ipv4_addr.Prefix.subsumes x y then b else a

let intersect a b =
  if disjoint a b then None
  else
    Some
      { in_port = meet_scalar a.in_port b.in_port;
        dl_src = meet_scalar a.dl_src b.dl_src;
        dl_dst = meet_scalar a.dl_dst b.dl_dst;
        dl_vlan = meet_scalar a.dl_vlan b.dl_vlan;
        dl_vlan_pcp = meet_scalar a.dl_vlan_pcp b.dl_vlan_pcp;
        dl_type = meet_scalar a.dl_type b.dl_type;
        nw_src = meet_prefix a.nw_src b.nw_src;
        nw_dst = meet_prefix a.nw_dst b.nw_dst;
        nw_proto = meet_scalar a.nw_proto b.nw_proto;
        nw_tos = meet_scalar a.nw_tos b.nw_tos;
        tp_src = meet_scalar a.tp_src b.tp_src;
        tp_dst = meet_scalar a.tp_dst b.tp_dst }

let count_some l = List.length (List.filter Fun.id l)

let specificity m =
  count_some
    [ m.in_port <> None; m.dl_src <> None; m.dl_dst <> None; m.dl_vlan <> None;
      m.dl_vlan_pcp <> None; m.dl_type <> None; m.nw_src <> None;
      m.nw_dst <> None; m.nw_proto <> None; m.nw_tos <> None;
      m.tp_src <> None; m.tp_dst <> None ]

let is_exact m =
  m.in_port <> None && m.dl_src <> None && m.dl_dst <> None
  && m.dl_type <> None
  && (match m.nw_src with Some p -> p.P.Ipv4_addr.Prefix.bits = 32 | None -> false)
  && (match m.nw_dst with Some p -> p.P.Ipv4_addr.Prefix.bits = 32 | None -> false)
  && m.nw_proto <> None && m.tp_src <> None && m.tp_dst <> None

let field_names =
  [ "in_port"; "dl_src"; "dl_dst"; "dl_vlan"; "dl_vlan_pcp"; "dl_type";
    "nw_src"; "nw_dst"; "nw_proto"; "nw_tos"; "tp_src"; "tp_dst" ]

let to_fields m =
  List.filter_map Fun.id
    [ Option.map (fun v -> "in_port", string_of_int v) m.in_port;
      Option.map (fun v -> "dl_src", P.Mac.to_string v) m.dl_src;
      Option.map (fun v -> "dl_dst", P.Mac.to_string v) m.dl_dst;
      Option.map (fun v -> "dl_vlan", string_of_int v) m.dl_vlan;
      Option.map (fun v -> "dl_vlan_pcp", string_of_int v) m.dl_vlan_pcp;
      Option.map (fun v -> "dl_type", Printf.sprintf "0x%04x" v) m.dl_type;
      Option.map (fun v -> "nw_src", P.Ipv4_addr.Prefix.to_string v) m.nw_src;
      Option.map (fun v -> "nw_dst", P.Ipv4_addr.Prefix.to_string v) m.nw_dst;
      Option.map (fun v -> "nw_proto", string_of_int v) m.nw_proto;
      Option.map (fun v -> "nw_tos", string_of_int v) m.nw_tos;
      Option.map (fun v -> "tp_src", string_of_int v) m.tp_src;
      Option.map (fun v -> "tp_dst", string_of_int v) m.tp_dst ]

let parse_int_range name lo hi s =
  match int_of_string_opt (String.trim s) with
  | Some v when v >= lo && v <= hi -> Ok v
  | Some _ | None -> Error (Printf.sprintf "%s: invalid value %S" name s)

let set_field m name value =
  let v = String.trim value in
  match name with
  | "in_port" ->
    Result.map (fun x -> { m with in_port = Some x })
      (parse_int_range name 0 0xffffffff v)
  | "dl_src" -> (
    match P.Mac.of_string v with
    | Some mac -> Ok { m with dl_src = Some mac }
    | None -> Error (Printf.sprintf "dl_src: invalid value %S" v))
  | "dl_dst" -> (
    match P.Mac.of_string v with
    | Some mac -> Ok { m with dl_dst = Some mac }
    | None -> Error (Printf.sprintf "dl_dst: invalid value %S" v))
  | "dl_vlan" ->
    Result.map (fun x -> { m with dl_vlan = Some x }) (parse_int_range name 0 4095 v)
  | "dl_vlan_pcp" ->
    Result.map (fun x -> { m with dl_vlan_pcp = Some x }) (parse_int_range name 0 7 v)
  | "dl_type" ->
    Result.map (fun x -> { m with dl_type = Some x }) (parse_int_range name 0 0xffff v)
  | "nw_src" -> (
    match P.Ipv4_addr.Prefix.of_string v with
    | Some p -> Ok { m with nw_src = Some p }
    | None -> Error (Printf.sprintf "nw_src: invalid value %S" v))
  | "nw_dst" -> (
    match P.Ipv4_addr.Prefix.of_string v with
    | Some p -> Ok { m with nw_dst = Some p }
    | None -> Error (Printf.sprintf "nw_dst: invalid value %S" v))
  | "nw_proto" ->
    Result.map (fun x -> { m with nw_proto = Some x }) (parse_int_range name 0 255 v)
  | "nw_tos" ->
    Result.map (fun x -> { m with nw_tos = Some x }) (parse_int_range name 0 255 v)
  | "tp_src" ->
    Result.map (fun x -> { m with tp_src = Some x }) (parse_int_range name 0 0xffff v)
  | "tp_dst" ->
    Result.map (fun x -> { m with tp_dst = Some x }) (parse_int_range name 0 0xffff v)
  | _ -> Error (Printf.sprintf "unknown match field %S" name)

let of_fields fields =
  List.fold_left
    (fun acc (name, value) ->
      match acc with
      | Error _ as e -> e
      | Ok m -> set_field m name value)
    (Ok any) fields

let eq_int (a : int option) b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> x = y
  | _ -> false

let eq_mac (a : P.Mac.t option) (b : P.Mac.t option) =
  eq_int (a :> int option) (b :> int option)

let eq_prefix a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> P.Ipv4_addr.Prefix.equal x y
  | _ -> false

let equal a b =
  eq_int a.in_port b.in_port
  && eq_mac a.dl_src b.dl_src
  && eq_mac a.dl_dst b.dl_dst
  && eq_int a.dl_vlan b.dl_vlan
  && eq_int a.dl_vlan_pcp b.dl_vlan_pcp
  && eq_int a.dl_type b.dl_type
  && eq_prefix a.nw_src b.nw_src
  && eq_prefix a.nw_dst b.nw_dst
  && eq_int a.nw_proto b.nw_proto
  && eq_int a.nw_tos b.nw_tos
  && eq_int a.tp_src b.tp_src
  && eq_int a.tp_dst b.tp_dst

(* Mixes every field, absent distinct from present-with-0: the generic
   [Hashtbl.hash] stops after ten meaningful words and never reaches a
   field value of this twelve-option record. Allocation-free. *)
let mix_int h (v : int option) =
  match v with None -> h * 31 | Some v -> (h * 31) + 1 + v

let mix_mac h (v : P.Mac.t option) = mix_int h (v :> int option)

let mix_prefix h = function
  | None -> h * 31
  | Some (p : P.Ipv4_addr.Prefix.t) ->
    (h * 31) + 1
    + (Int32.to_int (P.Ipv4_addr.to_int32 p.base) land 0xffffffff)
    + (p.bits lsl 32)

let hash m =
  let h = mix_int 17 m.in_port in
  let h = mix_mac h m.dl_src in
  let h = mix_mac h m.dl_dst in
  let h = mix_int h m.dl_vlan in
  let h = mix_int h m.dl_vlan_pcp in
  let h = mix_int h m.dl_type in
  let h = mix_prefix h m.nw_src in
  let h = mix_prefix h m.nw_dst in
  let h = mix_int h m.nw_proto in
  let h = mix_int h m.nw_tos in
  let h = mix_int h m.tp_src in
  mix_int h m.tp_dst land max_int

(* --- packed representation -------------------------------------------------- *)

module Packed = struct
  (* Field layout, bit offsets within each word (every word stays inside
     OCaml's 63 tagged bits):
       w0: dl_src[0..47]    dl_vlan[48..59]   dl_vlan_pcp[60..62]
       w1: dl_dst[0..47]    nw_proto[48..55]
       w2: nw_src[0..31]    dl_type[32..47]   nw_tos[48..55]
       w3: nw_dst[0..31]    tp_src[32..47]    presence[48..55]
       w4: in_port[0..31]   tp_dst[32..47]
     Presence bits (w3, bit 48+i) distinguish "field absent from this
     packet" from "field present with value 0": dl_vlan=0, dl_vlan_pcp=1,
     nw_src=2, nw_dst=3, nw_proto=4, nw_tos=5, tp_src=6, tp_dst=7.
     in_port, dl_src, dl_dst and dl_type exist in every packet and need
     no presence bit. *)
  type t = { w0 : int; w1 : int; w2 : int; w3 : int; w4 : int }

  let zero = { w0 = 0; w1 = 0; w2 = 0; w3 = 0; w4 = 0 }

  let p_dl_vlan = 1 lsl 48
  let p_dl_vlan_pcp = 1 lsl 49
  let p_nw_src = 1 lsl 50
  let p_nw_dst = 1 lsl 51
  let p_nw_proto = 1 lsl 52
  let p_nw_tos = 1 lsl 53
  let p_tp_src = 1 lsl 54
  let p_tp_dst = 1 lsl 55

  let equal a b =
    a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2 && a.w3 = b.w3 && a.w4 = b.w4

  let hash p =
    let mix h w = (h * 486187739) + w in
    mix (mix (mix (mix (mix 17 p.w0) p.w1) p.w2) p.w3) p.w4 land max_int

  let logand a b =
    { w0 = a.w0 land b.w0; w1 = a.w1 land b.w1; w2 = a.w2 land b.w2;
      w3 = a.w3 land b.w3; w4 = a.w4 land b.w4 }

  let ip_bits a = Int32.to_int (P.Ipv4_addr.to_int32 a) land 0xffffffff

  let of_headers (h : P.Headers.t) =
    let pr = ref 0 in
    let opt bit f = function
      | Some v ->
        pr := !pr lor bit;
        f v
      | None -> 0
    in
    let w0 =
      P.Mac.to_int h.dl_src
      lor opt p_dl_vlan (fun v -> v lsl 48) h.dl_vlan
      lor opt p_dl_vlan_pcp (fun v -> v lsl 60) h.dl_vlan_pcp
    in
    let w1 =
      P.Mac.to_int h.dl_dst lor opt p_nw_proto (fun v -> v lsl 48) h.nw_proto
    in
    let w2 =
      opt p_nw_src ip_bits h.nw_src
      lor (h.dl_type lsl 32)
      lor opt p_nw_tos (fun v -> v lsl 48) h.nw_tos
    in
    let w3 =
      opt p_nw_dst ip_bits h.nw_dst
      lor opt p_tp_src (fun v -> v lsl 32) h.tp_src
    in
    let w4 =
      (h.in_port land 0xffffffff) lor opt p_tp_dst (fun v -> v lsl 32) h.tp_dst
    in
    { w0; w1; w2; w3 = w3 lor !pr; w4 }

  type rule = { mask : t; value : t }

  let matches r key = equal (logand r.mask key) r.value

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

(* The CIDR netmask as an int over the unsigned 32-bit address image —
   the same bits [Ipv4_addr.Prefix.mask] selects. *)
let pfx_mask bits =
  if bits <= 0 then 0
  else if bits >= 32 then 0xffffffff
  else 0xffffffff lsl (32 - bits) land 0xffffffff

let pack_rule (m : t) : Packed.rule =
  let m0 = ref 0 and m1 = ref 0 and m2 = ref 0 and m3 = ref 0 and m4 = ref 0 in
  let v0 = ref 0 and v1 = ref 0 and v2 = ref 0 and v3 = ref 0 and v4 = ref 0 in
  let scalar mw vw pbit width shift = function
    | None -> ()
    | Some v ->
      let field = (1 lsl width) - 1 in
      mw := !mw lor (field lsl shift);
      vw := !vw lor ((v land field) lsl shift);
      m3 := !m3 lor pbit;
      v3 := !v3 lor pbit
  in
  (* The prefix base goes into the value verbatim: an unnormalized base
     (bits outside the netmask) then never compares equal, exactly as
     [Prefix.matches] never holds for it. *)
  let prefix mw vw pbit = function
    | None -> ()
    | Some (p : P.Ipv4_addr.Prefix.t) ->
      mw := !mw lor pfx_mask p.bits;
      vw := !vw lor Packed.ip_bits p.base;
      m3 := !m3 lor pbit;
      v3 := !v3 lor pbit
  in
  scalar m4 v4 0 32 0 m.in_port;
  scalar m0 v0 0 48 0 (Option.map P.Mac.to_int m.dl_src);
  scalar m1 v1 0 48 0 (Option.map P.Mac.to_int m.dl_dst);
  scalar m0 v0 Packed.p_dl_vlan 12 48 m.dl_vlan;
  scalar m0 v0 Packed.p_dl_vlan_pcp 3 60 m.dl_vlan_pcp;
  scalar m2 v2 0 16 32 m.dl_type;
  prefix m2 v2 Packed.p_nw_src m.nw_src;
  prefix m3 v3 Packed.p_nw_dst m.nw_dst;
  scalar m1 v1 Packed.p_nw_proto 8 48 m.nw_proto;
  scalar m2 v2 Packed.p_nw_tos 8 48 m.nw_tos;
  scalar m3 v3 Packed.p_tp_src 16 32 m.tp_src;
  scalar m4 v4 Packed.p_tp_dst 16 32 m.tp_dst;
  { Packed.mask = { w0 = !m0; w1 = !m1; w2 = !m2; w3 = !m3; w4 = !m4 };
    value = { w0 = !v0; w1 = !v1; w2 = !v2; w3 = !v3; w4 = !v4 } }

let pp ppf m =
  match to_fields m with
  | [] -> Format.pp_print_string ppf "*"
  | fields ->
    Format.pp_print_string ppf
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) fields))
