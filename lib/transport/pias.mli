(** PIAS [9]: DCTCP rate control with multi-level-feedback priority
    demotion by bytes sent (no a-priori size information). *)

val prio_of : bytes_sent:int -> int
(** The priority of a flow that has sent [bytes_sent] bytes: P0 below
    10KB, one level lower per crossed threshold (30KB, 100KB, 300KB,
    1MB, 3MB, 10MB). *)

val make : unit -> Endpoint.factory
(** PIAS (initial window 10 segments) as a complete transport. *)
