(** HPCC [25]: high-precision congestion control from inband
    telemetry. Requires the fabric to run with INT collection. *)

val attach : Context.t -> Reliable.t -> unit
(** Install HPCC (target utilization 0.95, additive increase half a
    segment per update) on a sender. *)

val make : unit -> Endpoint.factory
(** HPCC (initial window 10 segments, no ECN) as a complete
    transport. *)
