(** A binary min-heap under a caller-supplied strict order — the one
    timer queue of the tree: the network's event queue (ordered on
    [(at, seq)], so same-instant events stay FIFO) and the driver
    manager's wake timers (ordered on [due]) are both this heap. *)

type 'a t

val create : lt:('a -> 'a -> bool) -> 'a t
(** [lt a b] is true when [a] must pop before [b]. *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Remove and return a minimum under [lt]. *)

val length : 'a t -> int
