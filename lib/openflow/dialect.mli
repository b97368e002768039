(** The wire version a switch speaks — the one place the choice between
    {!Of10} and {!Of13} is made. Everything above the codecs (agent,
    driver, manager, controller) handles {!Msg.t} and carries a [t]. *)

type t = V10 | V13

val name : t -> string
(** ["openflow10"] or ["openflow13"], as recorded in a switch's
    [protocol] file. *)

val encode : t -> xid:int32 -> Msg.t -> string
(** The complete message, header included. *)

val decode : t -> string -> (int32 * Msg.t, Msg.error) result
(** Decode one complete message (as delivered by {!Framing}). A failure
    is the error a switch answers it with. *)
