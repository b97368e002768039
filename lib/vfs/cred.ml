type t = { uid : int; gid : int; groups : int list; floor : Path.t }

let root = { uid = 0; gid = 0; groups = []; floor = Path.root }

let make ?(groups = []) ~uid ~gid () = { uid; gid; groups; floor = Path.root }

let beneath c floor = if Path.is_prefix c.floor floor then { c with floor } else c

let is_root c = c.uid = 0

let in_group c g = c.gid = g || List.mem g c.groups

let pp ppf c = Format.fprintf ppf "uid=%d gid=%d" c.uid c.gid
