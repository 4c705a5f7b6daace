(** Halfback [23]: pace out small flows entirely in the first RTT and
    proactively replay the tail; larger flows fall back to TCP-10. *)

val replay_segs : int
(** Tail segments a small flow replays after its burst (8). *)

val make : unit -> Endpoint.factory
(** Halfback with the paper's 141KB pace-out limit. *)
