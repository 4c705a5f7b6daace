(** Generic receiver endpoint for window-based transports.

    Tracks received segments, acknowledges every primary-loop data
    packet (cumulative + SACK + CE echo + timestamp + telemetry echo),
    batches low-priority-loop ACKs (PPT's 2:1 EWD clocking), and fires
    a completion callback once the whole flow has arrived. *)

open Ppt_netsim

type config = {
  ack_prio : int;
  lcp_batch : int;          (** LCP data packets per low-priority ACK *)
  lcp_ack_prio : [ `Echo | `Fixed of int ];
}

val default_config : config
(** Per-packet acks at P0; per-packet (batch 1) low-priority acks. *)

type t = {
  ctx : Context.t;
  flow : Flow.t;
  cfg : config;
  rx : Reassembly.t;
  mutable lcp_pending : int;
  mutable lcp_sacks : int list;
  mutable lcp_ece : bool;
  mutable lcp_last_prio : int;
  mutable done_fired : bool;
  mutable on_done : unit -> unit;
}

val create : Context.t -> Flow.t -> config -> t
val on_data : t -> Packet.t -> unit
