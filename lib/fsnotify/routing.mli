(** The event-routing index behind {!Notifier}.

    One index serves every [Indexed] notifier on a file system, the way
    Linux fsnotify keeps one mark list per inode for all inotify groups:
    each watch is a mark that records the notifier ({!watch.owner}) it
    belongs to. The index answers "which watches, of any notifier, care
    about a change to [path]?" with one walk of a component trie
    holding every watch at the node of its anchor — O(path depth +
    matching watches), however many notifiers share the file system.

    The original linear scan is retained as {!route_linear} so tests can
    prove the two implementations route identically and benches can
    measure the gap. *)

type 'a watch = {
  wd : int;            (** unique within [owner], not across owners *)
  path : Vfs.Path.t;
  mask : int;          (** bitset over {!Event.bit} *)
  recursive : bool;
  leaves : string list option;
      (** the notifier's leaf-name filter; routing ignores it *)
  owner : 'a;          (** the notifier whose queue the watch feeds *)
}

type 'a t

val create : unit -> 'a t

val count : 'a t -> int
(** Live watches in the index, across every owner. *)

val add : 'a t -> 'a watch -> unit

val remove : 'a t -> 'a watch -> unit
(** Remove this watch (compared physically); it must have been added. *)

val route : 'a t -> Vfs.Path.t -> 'a watch list * 'a watch list * int
(** [route t path] is [(selfs, childs, visited)]: watches anchored
    exactly at [path] (candidates for self events), watches anchored at
    the parent or — if recursive — any strict ancestor (candidates for
    child events, each watch appearing once), and the number of
    candidate watches examined. Mask filtering, event construction and
    grouping by owner are the caller's job; candidate order is
    unspecified. *)

val route_linear :
  'a watch list -> Vfs.Path.t -> 'a watch list * 'a watch list * int
(** The reference full scan over a plain watch list; same contract as
    {!route}, with [visited] equal to the total number of watches. *)
