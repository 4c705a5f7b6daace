(** RC3 [30]: a DCTCP primary loop plus open-loop low-priority
    transmission of the whole remaining flow from the tail, in
    exponentially growing priority tiers. *)

val lp_prio : int -> int
(** Priority of the [n]-th low-priority packet counted from the tail:
    P4 for the last 40 packets, P5 for the next 40^2, P6 for the next
    40^3, P7 beyond. *)

val make : unit -> Endpoint.factory
(** RC3 with the recommended 2GB send buffer (initial window 10
    segments). *)
