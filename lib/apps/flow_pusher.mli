(** The static flow pusher (paper §8: "a simple static flow pusher shell
    script can be used to write flows to switches"). This is the library
    form; the same operation is a genuine shell one-liner over the
    {!Shell} utilities in the examples.

    Specs are parsed from a tiny text format, one flow per line:

    {v sw1 name=ssh-drop priority=40000 match.tp_dst=22 match.dl_type=0x0800 match.nw_proto=6 action.0.out=drop v}

    A switch of [*] targets every switch present. The keys after
    [name] are the flow directory's files a spec may set
    ({!Yancfs.Flowdir.is_spec_file}), parsed as {!Yancfs.Flowdir}
    parses them; any other key is an error. *)

type spec = {
  switch : string;   (** a name, or ["*"] *)
  name : string;
  flow : Yancfs.Flowdir.t;
}

val parse : string -> (spec list, string) result
(** Parse a whole config (blank lines and [#] comments skipped). The
    error names the offending line. *)

val push :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> spec list -> (int, string) result
(** Write each flow (create or update+commit); returns how many flow
    directories were written. *)

val push_config :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> string -> (int, string) result

val oneshot : Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> config:string -> App_intf.t

val watching :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> path:Vfs.Path.t -> App_intf.t
(** A daemon that watches a config file {e inside} the VFS and re-pushes
    it whenever it is created, modified or renamed into place. Bursty
    rewrites coalesce to a single push. The daemon is skipped by the
    scheduler while no config events are pending. *)
