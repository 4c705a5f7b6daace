(** Delay-based congestion control, conceptually equivalent to
    Swift [21] (fabric delay only, as in the paper's Fig. 14 variant). *)

val attach : Context.t -> Reliable.t -> unit -> bool
(** Install the delay-based policy on a sender. The returned predicate
    holds while the last measured fabric delay is below the target
    (1.5 x base RTT): the spare-bandwidth signal PPT's LCP rides on. *)

val make : unit -> Endpoint.factory
(** Swift-like delay control (initial window 10 segments, no ECN) as a
    complete transport. *)
