(* NDP [15]: receiver-driven transport with packet trimming.

   Senders blast a full initial window (one BDP) at line rate. When a
   switch queue overflows, the queue discipline trims the payload and
   forwards the header at top priority ([Prio_queue.config.trim] must
   be on for NDP runs). The receiver:
   - NACKs every trimmed header so the sender queues the segment for
     retransmission;
   - clocks the remainder of the transfer with PULL packets paced at
     its link rate, shared round-robin across all inbound flows.

   A pull carries the receiver's cumulative progress so the sender can
   fall back to timeout retransmission if control packets die. *)

open Ppt_engine
open Ppt_netsim

(* ---- sender -------------------------------------------------------- *)

type sender = {
  d : Driven.sender;
  retx : int Queue.t;             (* NACKed segments to resend *)
}

(* Data rides at P1, under the control packets' P0. *)
let send_seg d ~retransmission seq =
  Driven.send_data d ~prio:1 ~first_rtt:false ~sel_drop:false
    ~retransmission seq

(* One pull = one packet's worth of credit. *)
let sender_on_pull s =
  let d = s.d in
  if not d.shut then begin
    match Queue.take_opt s.retx with
    | Some seq -> send_seg d ~retransmission:true seq
    | None ->
      if d.snd_nxt < d.flow.Flow.nseg then begin
        send_seg d ~retransmission:false d.snd_nxt;
        d.snd_nxt <- d.snd_nxt + 1
      end
  end

(* resend the first segment the receiver is missing *)
let rto_repair (d : Driven.sender) () =
  if d.cum < d.flow.Flow.nseg && d.cum < d.snd_nxt then
    send_seg d ~retransmission:true d.cum

(* ---- receiver: per-host pull pacer --------------------------------- *)

type msg = {
  sender : Driven.sender;
  rx : Reassembly.t;
}

type host_state = {
  hs_ctx : Context.t;
  pulls : msg Queue.t;        (* round-robin pull tokens *)
  mutable pacing : bool;
  mutable pace_fire : unit -> unit;   (* preallocated pacer callback *)
}

(* A control packet from the receiver back to the sender, at P0. *)
let send_ctl hs (m : msg) kind meta =
  let flow = m.sender.Driven.flow in
  Net.send hs.hs_ctx.Context.net
    (Packet.make ~prio:0 ~meta ~flow:flow.Flow.id ~src:flow.Flow.dst
       ~dst:flow.Flow.src kind)

(* Emit one pull per MTU serialization slot of the receiver's edge
   link; this clocks aggregate inbound traffic at line rate. *)
let rec pace hs () =
  match Queue.take_opt hs.pulls with
  | None -> hs.pacing <- false
  | Some m ->
    if Reassembly.complete m.rx then pace hs ()
    else begin
      send_ctl hs m Packet.Pull
        (Wire.Pull_meta { p_cum = m.rx.Reassembly.cum });
      let slot =
        Units.tx_time ~rate:hs.hs_ctx.Context.edge_rate ~bytes:Packet.mtu
      in
      ignore (Sim.schedule hs.hs_ctx.Context.sim ~after:slot hs.pace_fire)
    end

let enqueue_pull hs (m : msg) =
  if not (Reassembly.complete m.rx) then begin
    Queue.push m hs.pulls;
    if not hs.pacing then begin
      hs.pacing <- true;
      ignore (Sim.schedule hs.hs_ctx.Context.sim ~after:0 hs.pace_fire)
    end
  end

let receiver_on_data hs (m : msg) (p : Packet.t) =
  Context.count_op hs.hs_ctx m.sender.Driven.flow.Flow.dst;
  if Reassembly.complete m.rx then ()
  else if p.trimmed then begin
    (* header survived: fast loss notification + keep the clock going *)
    send_ctl hs m Packet.Nack (Wire.Nack_meta { nack_seq = p.seq });
    enqueue_pull hs m
  end else begin
    ignore (Reassembly.mark m.rx p.seq);
    if Reassembly.complete m.rx then Driven.finish m.sender
    else enqueue_pull hs m
  end

(* ---- wiring -------------------------------------------------------- *)

let make () ctx =
  (* the first window is one BDP *)
  let iw_segs = max 1 (ctx.Context.bdp / Packet.max_payload) in
  let host_state =
    Driven.per_host ctx (fun () ->
        let hs =
          { hs_ctx = ctx; pulls = Queue.create (); pacing = false;
            pace_fire = ignore }
        in
        hs.pace_fire <- (fun () -> pace hs ());
        hs)
  in
  { Endpoint.t_name = "ndp";
    t_start = (fun flow ->
        let s = { d = Driven.sender ctx flow; retx = Queue.create () } in
        let d = s.d in
        let hs = host_state flow.Flow.dst in
        let m = { sender = d; rx = Reassembly.create flow.Flow.nseg } in
        Driven.start d
          ~on_sender:(fun p ->
              match p.Packet.kind, p.Packet.meta with
              | Packet.Pull, Wire.Pull_meta { p_cum } ->
                d.cum <- max d.cum p_cum;
                sender_on_pull s
              | Packet.Nack, Wire.Nack_meta { nack_seq } ->
                Queue.push nack_seq s.retx
              | _ -> ())
          ~on_receiver:(fun p ->
              match p.Packet.kind with
              | Packet.Data -> receiver_on_data hs m p
              | _ -> ())
          ~first:(fun () ->
              (* first window at line rate *)
              let burst = min iw_segs flow.Flow.nseg in
              for seq = 0 to burst - 1 do
                send_seg d ~retransmission:false seq
              done;
              d.snd_nxt <- burst)
          ~on_timeout:(rto_repair d)) }
