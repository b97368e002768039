(** The packet-out request spool, [<switch>/packet_out/] — the file-I/O
    path for applications to emit packets (e.g. an ARP daemon answering
    a request it received as a packet-in). An application creates a
    numbered directory with the outgoing frame and actions; the driver
    sends a protocol packet-out and removes the request. This module is
    the request's codec over {!Record}'s spool: a malformed request is
    removed and counted, never sent or left behind. *)

type request = {
  seq : int;
  buffer_id : int32 option;  (** release a switch buffer instead of data *)
  in_port : int option;
  actions : Openflow.Action.t list;
  data : string;             (** raw frame bytes; ignored with buffer_id *)
}

val submit :
  Yanc_fs.t -> cred:Vfs.Cred.t -> switch:string ->
  ?buffer_id:int32 -> ?in_port:int -> actions:Openflow.Action.t list ->
  data:string -> unit -> (int, Vfs.Errno.t) result
(** Queue a packet-out in the mount's [switch]; returns its sequence
    number, the mount's next ({!Yanc_fs.next_packet_out}). *)

val consume :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> root:Vfs.Path.t -> switch:string ->
  on_error:(Vfs.Errno.t -> unit) -> (request list, Vfs.Errno.t) result
(** Drain all pending requests (removing them), oldest first; the
    driver drains as root ({!Record.take}). A malformed request — an
    action, [buffer_id] or [in_port] file that does not parse, or a
    field that cannot be read — is removed and its error ([EINVAL] for
    a parse) goes to [on_error]. A request whose removal fails goes to
    [on_error] and is not returned; it stays in the spool and a later
    drain returns it once its removal succeeds. A spool that cannot be
    listed is the listing's error. *)
