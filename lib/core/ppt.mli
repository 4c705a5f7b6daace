(** PPT: the complete pragmatic transport (dual-loop rate control +
    buffer-aware flow scheduling) on DCTCP, Swift or HPCC, and its
    ablation variants. *)

open Ppt_transport

val make : unit -> Context.t -> Endpoint.transport
(** PPT on DCTCP, as the paper designs it. *)

val make_swift : unit -> Context.t -> Endpoint.transport
(** Fig. 14: PPT on a Swift-like delay-based primary loop; a loop opens
    whenever the measured fabric delay is below the target. *)

val make_hpcc : unit -> Context.t -> Endpoint.transport
(** Appendix B: PPT on HPCC; a loop opens whenever the flow's in-flight
    bytes are below the BDP. The fabric must collect telemetry. *)

val without_lcp_ecn : unit -> Context.t -> Endpoint.transport
(** Fig. 15 ablation. *)

val without_ewd : unit -> Context.t -> Endpoint.transport
(** Fig. 16 ablation. *)

val without_scheduling : unit -> Context.t -> Endpoint.transport
(** Fig. 17 ablation. *)

val without_identification : unit -> Context.t -> Endpoint.transport
(** Fig. 18 ablation. *)

val with_sendbuf : int -> Context.t -> Endpoint.transport
(** Fig. 27 sensitivity: PPT with the given send-buffer capacity. *)
