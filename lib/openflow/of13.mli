(** OpenFlow 1.3 message codec — the "newer protocol" whose coexistence
    with 1.0 motivates yanc's driver model (paper §4.1: "the majority of
    switches will communicate with an OpenFlow 1.0 driver, a handful
    with a separate OpenFlow 1.3 driver").

    Structural differences from 1.0 that this codec implements
    faithfully: OXM TLV matches, instructions wrapping actions, a
    [table_id] on flow-mods and stats, 64-byte ports delivered through
    multipart port-desc instead of inside features-reply. *)

val encode : xid:int32 -> Msg.t -> string
(** Add and modify flow-mods, and flow-stats entries, carry their
    actions as one apply-actions instruction; deletes carry none.
    Packet-ins go out with [table_id = 0] and [cookie = 0]. The
    features reply carries no ports: they come with port-desc. *)

val decode : string -> (int32 * Msg.t, Msg.error) result
(** An instruction list other than none or one apply-actions is
    refused with a [Bad_instruction] error. *)
