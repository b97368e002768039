(** The OpenFlow messages a controller and a switch exchange, with the
    wire version taken out.

    "A device driver is the implementation of a control plane protocol,
    or even a specific version of a protocol" (paper §4.1): what differs
    between the OpenFlow 1.0 and 1.3 drivers is the wire layout, not
    what the messages mean. This type is the meaning. {!Of10} and
    {!Of13} encode and decode it, and {!Dialect} picks between them.

    Where one dialect carries less than the other:
    - OF 1.0 has one table: [table_id] fields encode to nothing and
      decode as 0.
    - OF 1.3 reports ports through a port-desc request, not in the
      features reply: [features.ports] decodes as [None], and
      [Port_desc_req]/[Port_desc_rep] exist only in 1.3.
    - OF 1.3 wraps a flow's actions in instructions. Its codec accepts
      only what a single-table switch means by them: none, or one
      apply-actions. *)

type flow_mod_command = Add | Modify | Delete | Delete_strict

type flow_mod = {
  table_id : int;
  of_match : Of_match.t;
  cookie : int64;
  command : flow_mod_command;
  idle_timeout : int;   (** seconds; 0 = permanent *)
  hard_timeout : int;
  priority : int;
  buffer_id : int32 option;
  notify_removal : bool;  (** OFPFF_SEND_FLOW_REM *)
  actions : Action.t list;
}

type features = {
  datapath_id : int64;
  n_buffers : int;
  n_tables : int;
  capabilities : Of_types.Capabilities.t;
  ports : Of_types.Port_info.t list option;
      (** [None]: the dialect reports ports separately (OF 1.3
          port-desc) *)
}

type stats_request =
  | Flow_stats_req of { table_id : int option; of_match : Of_match.t }
      (** [table_id = None]: all tables *)
  | Port_stats_req of int option  (** [None]: all ports *)
  | Port_desc_req

type stats_reply =
  | Flow_stats_rep of (int * Of_types.Flow_stats.t) list
      (** each entry with its table id *)
  | Port_stats_rep of Of_types.Port_stats.t list
  | Port_desc_rep of Of_types.Port_info.t list

(** Error classes; each codec owns their type numbers. *)
type error_type =
  | Hello_failed
      (** also what the agent answers a message it cannot decode with *)
  | Bad_instruction
  | Flow_mod_failed
  | Other_error of int  (** a type number this model does not name *)

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
      data : string;  (** the frame bytes (possibly truncated to max_len) *)
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

val msg_name : t -> string
val pp : Format.formatter -> t -> unit
