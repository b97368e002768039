(** Per-application isolation (paper §5.3): the moral equivalent of
    mount namespaces + Unix users. A tenant is provisioned a view
    directory owned by its uid with group/other access removed, so the
    tenant's credential can work freely in its own subtree and
    cannot even traverse into other tenants' views, while yanc system
    applications (root) see everything. *)

val provision :
  Yancfs.Yanc_fs.t -> view:string -> owner:Vfs.Cred.t ->
  (Yancfs.Yanc_fs.t, Vfs.Errno.t) result
(** Create (or adopt) [<root>/views/<view>], chown its subtree to the
    owner, chmod it 0o700, and return a yanc handle rooted there. Must
    be called with enough privilege to chown (i.e. by root). The chown
    runs floored at the view ({!Vfs.Cred.beneath}): a symlink a
    re-provisioned view holds is not followed out of it, and the
    refusal is counted in [app.fs_errors]. *)

val enter :
  Yancfs.Yanc_fs.t -> cred:Vfs.Cred.t -> view:string ->
  (Yancfs.Yanc_fs.t, Vfs.Errno.t) result
(** Enter an existing view with a tenant credential; fails with [EACCES]
    if the credential cannot traverse it. *)
