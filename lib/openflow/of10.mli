(** OpenFlow 1.0 message codec (wire format per the OF 1.0.0 spec:
    8-byte header, 40-byte [ofp_match], 48-byte [ofp_phy_port]).

    This is the protocol the majority of the paper's switches speak.
    Only the message types a controller/switch pair actually exchanges
    are implemented; unknown types decode to [Error _] results, never
    exceptions. *)

val encode : xid:int32 -> Msg.t -> string
(** The complete message, header included. [table_id] fields are not
    encoded (OF 1.0 has one table). Raises [Invalid_argument] on
    [Port_desc_req]/[Port_desc_rep], which OF 1.0 does not have: its
    features reply carries the ports. *)

val decode : string -> (int32 * Msg.t, Msg.error) result
(** Decode one complete message (as delivered by {!Framing}). *)
