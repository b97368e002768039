(** Packet-in event buffers (paper §3.5).

    Every application interested in packet-in events creates a directory
    under a switch's [events/] — its private buffer. The driver
    publishes each packet-in concurrently into {e all} buffers as a
    numbered subdirectory holding [in_port], [reason], [buffer_id]
    (when the switch buffered the frame), [total_len] and [data] (the
    raw frame bytes). Applications consume events by reading and then
    removing the directory. This module is the event's codec over
    {!Record}'s spool, plus the fan-out to every subscriber: an event
    that does not parse is removed and counted, never skipped and read
    again. *)

type event = {
  seq : int;
  in_port : int;
  reason : Openflow.Of_types.packet_in_reason;
  buffer_id : int32 option;
  total_len : int;
  data : string;
}

val subscribe :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> root:Vfs.Path.t -> switch:string ->
  app:string -> (unit, Vfs.Errno.t) result
(** Create the app's private buffer (idempotent). *)

val subscribers :
  Vfs.Fs.t -> root:Vfs.Path.t -> switch:string -> string list

val publish :
  ?telemetry:Telemetry.t -> Yanc_fs.t -> cred:Vfs.Cred.t ->
  switch:string -> in_port:int -> reason:Openflow.Of_types.packet_in_reason ->
  buffer_id:int32 option -> total_len:int -> data:string ->
  (int, Vfs.Errno.t) result
(** Deliver one packet-in to every subscribed buffer of the mount's
    [switch] (the driver publishes as root), numbered with the mount's
    next event number ({!Yanc_fs.next_event}): [Ok n] when all [n]
    buffers were written, else the first failure's errno (the other
    buffers are still written); a failed listing of [events/] is its
    errno, with nothing written and no number taken. The event's
    directory belongs to the buffer's owner, so a non-root subscriber
    can remove what it consumed. [events/] is followed if it is a
    symlink, as a listing follows it (under [cred]'s floor); a symlink
    under [events/] is not a buffer and is never written through. With
    [telemetry], the current trace is stamped under
    {!Layout.trace_key_event} of the assigned number so consumers can
    resume it: the number is unique within the mount, and so within
    the tracer of the controller that owns it. *)

val consume :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> root:Vfs.Path.t -> switch:string ->
  app:string -> on_error:(Vfs.Errno.t -> unit) -> (event list, Vfs.Errno.t) result
(** Read and remove all pending events, oldest first ({!Record.take}).
    An event that does not parse, or cannot be read, is removed and its
    error ([EINVAL] for a parse) goes to [on_error]. An event whose
    removal fails goes to [on_error] and is not returned; it stays in
    the buffer and a later drain returns it once its removal succeeds.
    A buffer that cannot be listed is the listing's error. *)

val frame_of : event -> Packet.Eth.t option
(** Decode the captured bytes (fails on truncated captures). *)
