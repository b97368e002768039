(** Records: the one codec for "a directory of field files".

    Every yanc object is a directory of one-value files (paper §3): a
    switch's attributes and each port (§3.1), a host, a flow committed
    by its [version] file (§3.4), a packet-in event in an application's
    buffer (§3.5), a packet-out request. This module writes and reads
    the files of every such record; each object's module is a codec
    between its OCaml type and the record's [(name, value)] fields,
    and only its one-file accessors (a flow's [version] or [error], a
    switch's [status]) touch a single file directly. Bytes pass through
    untouched: a codec trims what it parses, never [data].

    A {e spool} is a directory of numbered records, oldest first: the
    packet-out requests under [packet_out/] and each application's
    packet-in buffer under [events/<app>/]. {!post} adds a record and
    {!take} drains them. *)

type fields = (string * string) list
(** [(name, value)] pairs; a name may reach below the record
    (["counters/packets"]). *)

val write :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> fields -> (unit, Vfs.Errno.t) result
(** One {!Vfs.Fs.write_file_at} per field, in list order, stopping at
    the first error. *)

val read :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> select:(string -> bool) ->
  (string list * fields, Vfs.Errno.t) result
(** One {!Vfs.Fs.readdir_at}, then one {!Vfs.Fs.read_file_at} per listed
    name [select] keeps, in listing order: the listing and the fields
    read. A file gone since the listing ([ENOENT]) is left out; the
    first other failure is the error. *)

val read_named :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Fs.dir -> string list -> (fields, Vfs.Errno.t) result
(** One {!Vfs.Fs.read_file_at} per name and no listing, for a record
    whose field names are fixed: a missing field ([ENOENT]) is left out
    of the result; any other failure is the error. *)

val required : (string -> 'a option) -> string -> fields -> 'a option
(** The field [name], trimmed and converted; [None] when it is missing
    or does not convert. *)

val optional : (string -> 'a option) -> string -> fields -> 'a option option
(** [Some None] when the field is missing, [Some (Some v)] when it
    converts, [None] when it is present and does not. *)

val post :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> seq:int -> ?owner:int * int ->
  fields -> (unit, Vfs.Errno.t) result
(** Make record [seq] in the spool directory, give it to [owner] (uid,
    gid) when one is named, open it, and {!write} the fields. *)

val take :
  Vfs.Fs.t -> cred:Vfs.Cred.t -> Vfs.Path.t -> select:(string -> bool) ->
  parse:(seq:int -> fields -> 'a option) -> on_error:(Vfs.Errno.t -> unit) ->
  ('a list, Vfs.Errno.t) result
(** Drain the spool: list it, keep the numeric names, oldest first, and
    for each record {!read} the fields [select] keeps, [parse] them,
    and remove it. A record is delivered only once its removal
    succeeds: one whose removal fails goes to [on_error], stays, and is
    delivered by a later drain. A record that cannot be read, or that
    [parse] refuses ([EINVAL]), is removed and its error goes to
    [on_error]: nothing is dropped silently or left to be read again.
    A spool that cannot be listed is the listing's error. *)
