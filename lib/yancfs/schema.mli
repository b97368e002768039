(** Semantic typing of the yanc tree (paper §3.1).

    "Directories and files contain semantic information. Each directory
    which contains a list of objects automatically creates an object of
    the appropriate type on a mkdir()."

    {!classify} maps a path to the kind of object it names, looking
    through arbitrarily nested views. {!attach} installs the yanc
    semantics on a VFS as three policies: a mkdir policy giving a typed
    directory its children as it is created (a new view gets
    hosts/switches/views, a new switch gets
    counters/events/flows/packet_out/ports, a new flow or port gets
    counters), an rmdir policy making typed-object removal recursive,
    and a symlink policy restricting [peer] links to ports. *)

type kind =
  | Root          (** a yanc root: /net or any view directory *)
  | Hosts_dir
  | Host
  | Host_attr
  | Switches_dir
  | Switch
  | Switch_attr
  | Switch_counters
  | Flows_dir
  | Flow
  | Flow_attr
  | Ports_dir
  | Port
  | Port_attr
  | Events_dir
  | Event_buffer  (** one application's private packet-in buffer *)
  | Event         (** one packet-in message *)
  | Event_attr
  | Views_dir
  | Not_yanc      (** outside the yanc tree *)

val classify : root:Vfs.Path.t -> Vfs.Path.t -> kind
(** [classify ~root path]. A view directory classifies as [Root] —
    whatever lies below it is classified against that nested root. *)

val enclosing_root : root:Vfs.Path.t -> Vfs.Path.t -> Vfs.Path.t option
(** The innermost yanc root (master or view) containing the path. *)

val attach : Vfs.Fs.t -> root:Vfs.Path.t -> unit
(** Install the semantics. *)

val kind_to_string : kind -> string
