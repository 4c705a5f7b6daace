(** Generic receiver endpoint for window-based transports.

    Tracks received segments, acknowledges every primary-loop data
    packet at P0 (cumulative + SACK + CE echo + timestamp + telemetry
    echo), batches low-priority-loop ACKs (PPT's 2:1 EWD clocking) at
    the priority of the latest LCP packet, and fires a completion
    callback once the whole flow has arrived. *)

open Ppt_netsim

type t = {
  ctx : Context.t;
  flow : Flow.t;
  lcp_batch : int;          (** LCP data packets per low-priority ACK *)
  rx : Reassembly.t;
  mutable lcp_pending : int;
  mutable lcp_sacks : int list;
  mutable lcp_ece : bool;
  mutable lcp_last_prio : int;
  mutable done_fired : bool;
  mutable on_done : unit -> unit;
}

val create : Context.t -> Flow.t -> lcp_batch:int -> t
val on_data : t -> Packet.t -> unit
