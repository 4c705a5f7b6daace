(** Glue between flows and the fabric: the interface every transport
    implements, plus the standard wiring for window-based senders. *)

type transport = {
  t_name : string;
  t_start : Flow.t -> unit;  (** invoked at the flow's start time *)
}

type factory = Context.t -> transport

val attach :
  Context.t -> Flow.t ->
  on_sender:(Ppt_netsim.Packet.t -> unit) ->
  on_receiver:(Ppt_netsim.Packet.t -> unit) -> unit
(** Register the flow's packet handlers at its source and destination
    hosts. The only way a transport hooks into the fabric. *)

val detach : Context.t -> Flow.t -> unit
(** Unregister both handlers [attach] installed. *)

val launch_window_flow :
  Context.t ->
  params:Reliable.params ->
  lcp_batch:int ->
  setup:(Reliable.t -> unit -> unit) ->
  Flow.t -> unit
(** Create sender and receiver state, register both packet handlers,
    run [setup] (which attaches congestion control and returns an extra
    teardown thunk), start transmitting, and tear everything down when
    the receiver holds the whole message. The receiver returns one
    low-priority ACK per [lcp_batch] low-priority data packets (2 for
    PPT's exponential window decrease, 1 otherwise). *)
