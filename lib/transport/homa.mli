(** Homa [32] (receiver-driven grants, SRPT, overcommitment) and its
    Aeolus [17] variant (lowest-priority selectively-dropped
    unscheduled packets with fast recovery). RTTbytes is one BDP. *)

val overcommit : int
(** Grants go to this many shortest-remaining messages at a time. *)

val make : unit -> Endpoint.factory
val make_aeolus : unit -> Endpoint.factory
