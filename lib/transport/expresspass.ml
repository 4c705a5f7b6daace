(* ExpressPass [11]: credit-scheduled, delay-bounded transport.

   The receiver controls everything: data may only be sent against a
   credit, and credits are paced at the receiver's line rate, shared
   round-robin over the active inbound flows. The sender holds its
   packets until credits arrive — the "passive, 1st RTT wasted"
   behaviour Table 1 notes — announcing itself with one credit
   request at flow start.

   Credits carry the receiver's cumulative progress so the sender can
   repair holes (credit-driven retransmission), with an RTO backstop
   for lost control packets. *)

open Ppt_engine
open Ppt_netsim

(* Data rides at P1, under the control packets' P0. *)
let send_seg d ~retransmission seq =
  Driven.send_data d ~prio:1 ~first_rtt:false ~sel_drop:false
    ~retransmission seq

(* The credit request announcing a flow to its receiver. *)
let send_request (d : Driven.sender) =
  let flow = d.flow in
  Net.send d.ctx.Context.net
    (Packet.make ~prio:0 ~flow:flow.Flow.id ~src:flow.Flow.src
       ~dst:flow.Flow.dst Packet.Ctrl)

(* One credit = permission for one packet: new data first, then the
   receiver's first hole once fresh data is exhausted. *)
let sender_on_credit (d : Driven.sender) ~credit_cum =
  if not d.shut then begin
    d.cum <- max d.cum credit_cum;
    if d.snd_nxt < d.flow.Flow.nseg then begin
      send_seg d ~retransmission:false d.snd_nxt;
      d.snd_nxt <- d.snd_nxt + 1
    end else if d.cum < d.flow.Flow.nseg then
      send_seg d ~retransmission:true d.cum
  end

let rto_repair (d : Driven.sender) () =
  (* no credit yet: the credit request must have been lost *)
  if d.snd_nxt = 0 then send_request d
  else if d.cum < d.snd_nxt then send_seg d ~retransmission:true d.cum

(* ---- receiver-side credit pacer (per host) ---- *)

type msg = {
  sender : Driven.sender;
  rx : Reassembly.t;
  mutable credits_sent : int;
}

type host_state = {
  hs_ctx : Context.t;
  mutable active : msg list;      (* round-robin credit targets *)
  mutable pacing : bool;
  mutable pace_fire : unit -> unit;   (* preallocated pacer callback *)
}

let send_credit hs (m : msg) =
  let flow = m.sender.Driven.flow in
  let meta = Wire.Pull_meta { p_cum = m.rx.Reassembly.cum } in
  let pkt =
    Packet.make ~prio:0 ~meta ~flow:flow.Flow.id ~src:flow.Flow.dst
      ~dst:flow.Flow.src Packet.Pull
  in
  m.credits_sent <- m.credits_sent + 1;
  Net.send hs.hs_ctx.Context.net pkt

(* Bounded outstanding credits: a message may have at most a window of
   unanswered credits. Data arrivals (including RTO retransmissions,
   which are not credit-gated) unlock further credits, so a burst of
   credit or data loss can never wedge the flow permanently. *)
let credit_window = 64

let wants_credit (m : msg) =
  (not (Reassembly.complete m.rx))
  && m.credits_sent < m.rx.Reassembly.received + credit_window

let pace hs () =
  match List.filter wants_credit hs.active with
  | [] -> hs.pacing <- false
  | eligible ->
    (* rotate: credit the head, move it to the back *)
    let m = List.hd eligible in
    send_credit hs m;
    hs.active <-
      List.filter (fun x -> x != m) hs.active @ [ m ];
    let slot =
      Units.tx_time ~rate:hs.hs_ctx.Context.edge_rate ~bytes:Packet.mtu
    in
    ignore (Sim.schedule hs.hs_ctx.Context.sim ~after:slot hs.pace_fire)

let kick hs =
  if not hs.pacing then begin
    hs.pacing <- true;
    ignore (Sim.schedule hs.hs_ctx.Context.sim ~after:0 hs.pace_fire)
  end

let receiver_on_data hs (m : msg) (p : Packet.t) =
  Context.count_op hs.hs_ctx m.sender.Driven.flow.Flow.dst;
  if (not (Reassembly.complete m.rx)) && not p.trimmed then begin
    ignore (Reassembly.mark m.rx p.seq);
    if Reassembly.complete m.rx then begin
      hs.active <- List.filter (fun x -> x != m) hs.active;
      Driven.finish m.sender
    end else
      (* the arrival may have re-opened the credit window *)
      kick hs
  end

let make () ctx =
  let host_state =
    Driven.per_host ctx (fun () ->
        let hs =
          { hs_ctx = ctx; active = []; pacing = false; pace_fire = ignore }
        in
        hs.pace_fire <- (fun () -> pace hs ());
        hs)
  in
  { Endpoint.t_name = "expresspass";
    t_start = (fun flow ->
        let d = Driven.sender ctx flow in
        let hs = host_state flow.Flow.dst in
        let m =
          { sender = d; rx = Reassembly.create flow.Flow.nseg;
            credits_sent = 0 }
        in
        Driven.start d
          ~on_sender:(fun p ->
              match p.Packet.kind, p.Packet.meta with
              | Packet.Pull, Wire.Pull_meta { p_cum } ->
                sender_on_credit d ~credit_cum:p_cum
              | _ -> ())
          ~on_receiver:(fun p ->
              match p.Packet.kind with
              | Packet.Data -> receiver_on_data hs m p
              | Packet.Ctrl ->
                (* credit request: the flow becomes credit-eligible *)
                if not (List.memq m hs.active)
                && not (Reassembly.complete m.rx) then begin
                  hs.active <- hs.active @ [ m ];
                  kick hs
                end
              | _ -> ())
          (* announce the flow; data waits for credits (1st RTT unused) *)
          ~first:(fun () -> send_request d)
          ~on_timeout:(rto_repair d)) }
