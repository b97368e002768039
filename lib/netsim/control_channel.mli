(** An in-memory bidirectional byte pipe standing in for the TCP
    connection between a switch and its controller-side driver. Bytes
    written on one endpoint are read, in order, from the other.

    The pipe is lossless and instantaneous by default. A {!Faults}
    policy can be installed per endpoint to make it misbehave the way a
    real control channel does — dropped, delayed, duplicated, reordered
    and truncated sends, plus hard disconnects — all driven by an
    explicit seeded {!Prng} and the simulation clock, so every fault
    schedule is reproducible from its seed. *)

type t

type endpoint

(** Per-endpoint fault injection. A policy applies to the endpoint's
    {e outgoing} traffic; each endpoint owns an independent PRNG stream
    so the two directions never share randomness. *)
module Faults : sig
  type policy = {
    drop : float;          (** P(send silently lost) *)
    duplicate : float;     (** P(send delivered twice) *)
    reorder : float;       (** P(send delivered before its predecessor) *)
    delay : float;         (** P(send held back) *)
    delay_s : float;       (** max hold-back, uniform in [0, delay_s] *)
    truncate : float;      (** P(send loses its tail bytes) *)
    reconnect_after : float;
        (** after a hard disconnect, {!reconnect} only succeeds once
            this many sim-seconds have passed *)
  }

  val default : policy
  (** All probabilities 0 — a policy that never fires. *)

  (** One-shot scripted faults, fired by sim time (see {!poll}). *)
  type action =
    | Drop_next of int      (** swallow the next n sends *)
    | Truncate_next of int  (** cut the next send to n bytes *)
    | Disconnect            (** hard-disconnect the channel *)

  type script_entry = { at : float; action : action }

  type t

  val create : ?policy:policy -> ?script:script_entry list -> seed:int -> unit -> t
end

type fault_stats = {
  dropped : int;
  duplicated : int;
  reordered : int;
  truncated : int;
  delayed : int;
}

val create : unit -> endpoint * endpoint
(** A connected pair: (switch side, controller side) by convention,
    though the pipe is symmetric. *)

val set_clock : endpoint -> (unit -> float) -> unit
(** Attach the simulation clock (shared by both endpoints). Delays,
    scripted faults and reconnect gating all read it; without it the
    channel behaves as if time stood still at 0. *)

val set_faults : endpoint -> Faults.t option -> unit
(** Install (or clear) the fault policy for this endpoint's sends. *)

val poll : endpoint -> unit
(** Fire any scripted faults that have come due. Sends poll implicitly;
    call this from the control loop so a scripted disconnect fires on
    schedule even over a quiet channel. *)

val send : endpoint -> string -> unit
(** Queue bytes for the peer — subject to this endpoint's fault policy,
    and silently swallowed while the channel is disconnected. *)

val recv : endpoint -> string option
(** The next pending chunk whose delivery time has arrived, if any
    (chunks preserve send boundaries; OpenFlow {!Openflow.Framing}
    reassembles messages regardless). *)

val recv_all : endpoint -> string list

val pending : endpoint -> int
(** Number of chunks queued at this endpoint (delivered or not). *)

val set_wakeup : endpoint -> (unit -> unit) -> unit
(** Install a callback fired whenever this endpoint gains something to
    react to: bytes enqueued for it, the channel disconnecting or
    reconnecting, or a fault policy installed on either side. This is
    what lets a scheduler park idle channels and still never miss
    traffic — a spurious wake costs one no-op step, so the hook errs on
    the side of firing. *)

val set_tap : endpoint -> (string -> unit) -> unit
(** Observe every chunk this endpoint sends, as {!send} is called:
    before faults apply and whether or not the channel is up. A capture
    point, like a packet trace on the switch's control port. *)

val next_activity : endpoint -> float
(** The earliest sim time at which stepping this endpoint could observe
    something new without further external input: the head of its own
    fault script, or the delivery time gating its oldest queued chunk.
    [infinity] when the endpoint is fully quiescent; may be in the past
    when work is already due. *)

val bytes_sent : endpoint -> int
(** Total bytes this endpoint has attempted to send — used by benches
    to measure control-channel volume. *)

(** {1 Connection state}

    A hard disconnect models the TCP session dying: both inboxes are
    flushed (bytes in flight are gone) and subsequent sends are
    swallowed until a successful {!reconnect}. *)

val connected : endpoint -> bool

val disconnect : endpoint -> unit
(** Sever the channel now (idempotent). *)

val reconnect : endpoint -> bool
(** Re-establish a severed channel. Fails (returns false) until the
    faulting side's [reconnect_after] has elapsed since the disconnect.
    Success bumps {!generation} — both sides must treat the stream as
    fresh (reset framing, re-handshake). *)

val generation : endpoint -> int
(** Incremented on every successful {!reconnect}; lets each side detect
    that the stream it was parsing no longer exists. *)

val disconnects : endpoint -> int
(** Hard disconnects this channel has suffered (scripted + explicit). *)

val fault_stats : endpoint -> fault_stats
(** Faults this endpoint's policy has injected (zeros when none). *)
