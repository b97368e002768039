type flow_mod_command = Add | Modify | Delete | Delete_strict

type flow_mod = {
  table_id : int;
  of_match : Of_match.t;
  cookie : int64;
  command : flow_mod_command;
  idle_timeout : int;
  hard_timeout : int;
  priority : int;
  buffer_id : int32 option;
  notify_removal : bool;
  actions : Action.t list;
}

type features = {
  datapath_id : int64;
  n_buffers : int;
  n_tables : int;
  capabilities : Of_types.Capabilities.t;
  ports : Of_types.Port_info.t list option;
}

type stats_request =
  | Flow_stats_req of { table_id : int option; of_match : Of_match.t }
  | Port_stats_req of int option
  | Port_desc_req

type stats_reply =
  | Flow_stats_rep of (int * Of_types.Flow_stats.t) list
  | Port_stats_rep of Of_types.Port_stats.t list
  | Port_desc_rep of Of_types.Port_info.t list

type error_type =
  | Hello_failed
  | Bad_instruction
  | Flow_mod_failed
  | Other_error of int

type error = { ty : error_type; code : int; data : string }

type t =
  | Hello
  | Error_msg of error
  | Echo_request of string
  | Echo_reply of string
  | Features_request
  | Features_reply of features
  | Packet_in of {
      buffer_id : int32 option;
      total_len : int;
      in_port : int;
      reason : Of_types.packet_in_reason;
      data : string;
    }
  | Packet_out of {
      buffer_id : int32 option;
      in_port : int option;
      actions : Action.t list;
      data : string;
    }
  | Flow_mod of flow_mod
  | Flow_removed of {
      table_id : int;
      of_match : Of_match.t;
      cookie : int64;
      priority : int;
      reason : Of_types.flow_removed_reason;
      duration_s : int;
      packets : int64;
      bytes : int64;
    }
  | Port_status of Of_types.port_status_reason * Of_types.Port_info.t
  | Port_mod of { port_no : int; admin_down : bool }
  | Stats_request of stats_request
  | Stats_reply of stats_reply
  | Barrier_request
  | Barrier_reply

let msg_name = function
  | Hello -> "hello"
  | Error_msg _ -> "error"
  | Echo_request _ -> "echo_request"
  | Echo_reply _ -> "echo_reply"
  | Features_request -> "features_request"
  | Features_reply _ -> "features_reply"
  | Packet_in _ -> "packet_in"
  | Packet_out _ -> "packet_out"
  | Flow_mod _ -> "flow_mod"
  | Flow_removed _ -> "flow_removed"
  | Port_status _ -> "port_status"
  | Port_mod _ -> "port_mod"
  | Stats_request _ -> "stats_request"
  | Stats_reply _ -> "stats_reply"
  | Barrier_request -> "barrier_request"
  | Barrier_reply -> "barrier_reply"

let error_type_name = function
  | Hello_failed -> "hello_failed"
  | Bad_instruction -> "bad_instruction"
  | Flow_mod_failed -> "flow_mod_failed"
  | Other_error n -> Printf.sprintf "type %d" n

let pp ppf m =
  match m with
  | Flow_mod fm ->
    Format.fprintf ppf "flow_mod[%s t=%d %a pri=%d -> %a]"
      (match fm.command with
      | Add -> "add"
      | Modify -> "mod"
      | Delete -> "del"
      | Delete_strict -> "del-strict")
      fm.table_id Of_match.pp fm.of_match fm.priority Action.pp_list fm.actions
  | Packet_in { in_port; data; _ } ->
    Format.fprintf ppf "packet_in[port=%d %dB]" in_port (String.length data)
  | Packet_out { actions; data; _ } ->
    Format.fprintf ppf "packet_out[%a %dB]" Action.pp_list actions
      (String.length data)
  | Port_status (_, p) -> Format.fprintf ppf "port_status[%a]" Of_types.Port_info.pp p
  | Error_msg { ty; code; data } ->
    Format.fprintf ppf "error[%s code=%d %s]" (error_type_name ty) code data
  | m -> Format.pp_print_string ppf (msg_name m)
