(* Plumbing shared by the receiver-driven transports (Homa, Aeolus,
   NDP, ExpressPass).

   Their senders differ only in policy: what a grant, pull or credit
   lets them send, and what a timeout repairs. Everything else lives
   here once: the sender state the receiver's progress reports update,
   the per-packet data send, the periodic RTO backstop, per-host
   receiver state, and the flow's wiring and teardown. *)

open Ppt_engine
open Ppt_netsim

type sender = {
  ctx : Context.t;
  flow : Flow.t;
  mutable snd_nxt : int;
  mutable cum : int;                  (* receiver's in-order progress *)
  mutable rto_timer : Sim.timer option;
  mutable shut : bool;
}

(* Each transport's sender embeds one of these. *)
let sender ctx flow =
  { ctx; flow; snd_nxt = 0; cum = 0; rto_timer = None; shut = false }

(* Transmit one data segment, counting it in the flow's payload (and
   retransmission) totals. Runs once per data packet: no optionals. *)
let send_data s ~prio ~first_rtt ~sel_drop ~retransmission seq =
  let flow = s.flow in
  let pay = Flow.seg_payload flow seq in
  let meta = Wire.Data_meta { tx = Sim.now s.ctx.Context.sim; first_rtt } in
  let pkt =
    Packet.make ~seq ~payload:pay ~prio ~sel_drop ~meta ~flow:flow.Flow.id
      ~src:flow.Flow.src ~dst:flow.Flow.dst Packet.Data
  in
  Context.count_op s.ctx flow.Flow.src;
  flow.Flow.hcp_payload <- flow.Flow.hcp_payload + pay;
  if retransmission then flow.Flow.retrans <- flow.Flow.retrans + 1;
  Net.send s.ctx.Context.net pkt

(* Every [rto_min] until the flow finishes, run the transport's repair
   and re-arm. *)
let rec arm_rto s on_timeout =
  if not s.shut then
    s.rto_timer <-
      Some (Sim.schedule s.ctx.Context.sim ~after:s.ctx.Context.rto_min
              (fun () ->
                 s.rto_timer <- None;
                 if not s.shut then begin
                   on_timeout ();
                   arm_rto s on_timeout
                 end))

(* Per-host receiver state, created on a host's first inbound flow. *)
let per_host ctx create =
  let hosts = Array.make (Net.n_nodes ctx.Context.net) None in
  fun host ->
    match hosts.(host) with
    | Some hs -> hs
    | None ->
      let hs = create () in
      hosts.(host) <- Some hs;
      hs

(* Launch a flow: attach its handlers, make the transport's first
   transmissions, then arm the RTO backstop. *)
let start s ~on_sender ~on_receiver ~first ~on_timeout =
  Endpoint.attach s.ctx s.flow ~on_sender ~on_receiver;
  first ();
  arm_rto s on_timeout

(* The receiver holds the whole message: record the flow, stop the
   sender's timer and detach both handlers, in that order. *)
let finish s =
  Context.flow_finished s.ctx s.flow;
  s.shut <- true;
  (match s.rto_timer with
   | Some tm -> Sim.cancel tm; s.rto_timer <- None
   | None -> ());
  Endpoint.detach s.ctx s.flow
