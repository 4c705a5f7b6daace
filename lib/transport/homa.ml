(* Homa [32], and its Aeolus [17] variant.

   Receiver-driven proactive transport:
   - the sender blindly transmits up to RTTbytes of *unscheduled* data
     the moment a message starts;
   - the receiver grants the remainder in RTTbytes-sized windows,
     running SRPT over its active inbound messages with overcommitment
     (grants go to the [overcommit] shortest-remaining messages);
   - in-network priorities: unscheduled data uses the top levels (split
     by message size), scheduled data is assigned per-grant by SRPT
     rank; grants and other control packets ride at P0;
   - loss recovery is timeout-based, as in the Aeolus-simulator setup
     the paper uses for Homa (§6.2), plus hole repair driven by
     stagnant grant progress.

   [make_aeolus] switches the first-RTT behaviour to Aeolus': the
   unscheduled packets are flagged for selective dropping and demoted
   to the lowest priority, so they die early under congestion instead
   of queueing in front of scheduled data. *)

open Ppt_engine
open Ppt_netsim

(* Grants go to this many shortest-remaining messages at a time;
   RTTbytes is the context BDP. *)
let overcommit = 2

(* ---- sender -------------------------------------------------------- *)

type sender = {
  d : Driven.sender;
  unsched_segs : int;
  unsched_prio : int;
  aeolus : bool;
  mutable granted : int;          (* segments we may transmit *)
  mutable sched_prio : int;
  mutable last_cum_change : Units.time;
  mutable fast_attempts : int;    (* Aeolus fast-recovery backoff *)
}

(* Repairs go out as scheduled data: at the granted priority, never
   selectively dropped. *)
let resend s seq =
  Driven.send_data s.d ~prio:s.sched_prio ~first_rtt:false ~sel_drop:false
    ~retransmission:true seq

(* timeout: everything between the receiver's progress point and what
   we already sent is presumed lost *)
let rto_repair s () =
  let d = s.d in
  for seq = d.cum to min d.snd_nxt d.flow.Flow.nseg - 1 do
    resend s seq
  done

let sender_pump s =
  let d = s.d in
  let limit = min s.granted d.flow.Flow.nseg in
  while d.snd_nxt < limit do
    let first_rtt = d.snd_nxt < s.unsched_segs in
    Driven.send_data d
      ~prio:(if first_rtt then s.unsched_prio else s.sched_prio)
      ~first_rtt ~sel_drop:(first_rtt && s.aeolus) ~retransmission:false
      d.snd_nxt;
    d.snd_nxt <- d.snd_nxt + 1
  done

(* Homa's loss recovery is purely timeout-based (the Aeolus-simulator
   setup the paper uses for Homa, §6.2): grants only open the window.
   Aeolus adds fast recovery: its unscheduled packets are dropped
   selectively at the switch, and the sender promptly retransmits the
   hole as scheduled (non-droppable) packets once grant progress shows
   it, instead of waiting a full RTO. *)
let sender_on_grant s (p : Packet.t) =
  match p.meta with
  | Wire.Grant_meta { g_cum; g_upto; g_prio } ->
    let d = s.d in
    Context.count_op d.ctx d.flow.Flow.src;
    let now = Sim.now d.ctx.Context.sim in
    if g_cum > d.cum then begin
      d.cum <- g_cum;
      s.last_cum_change <- now;
      s.fast_attempts <- 0
    end else if s.aeolus && d.cum < d.snd_nxt
             && now - s.last_cum_change
                > d.ctx.Context.base_rtt * (1 lsl min 6 s.fast_attempts)
    then begin
      (* exponential backoff: duplicates of a persistent hole must not
         amplify the congestion that caused it *)
      s.last_cum_change <- now;
      s.fast_attempts <- s.fast_attempts + 1;
      for seq = d.cum to min d.snd_nxt (d.cum + 8) - 1 do
        resend s seq
      done
    end;
    s.granted <- max s.granted g_upto;
    s.sched_prio <- g_prio;
    sender_pump s
  | _ -> ()

(* ---- receiver ------------------------------------------------------ *)

type msg = {
  sender : Driven.sender;
  rx : Reassembly.t;
  mutable m_granted : int;
}

type host_state = {
  hs_ctx : Context.t;
  rtt_segs : int;
  mutable inbound : msg list;
}

let send_grant hs (m : msg) ~rank =
  let flow = m.sender.Driven.flow in
  let prio = min (Prio_queue.n_prios - 1) (2 + rank) in
  let meta =
    Wire.Grant_meta
      { g_cum = m.rx.Reassembly.cum; g_upto = m.m_granted; g_prio = prio }
  in
  let pkt =
    Packet.make ~prio:0 ~meta ~flow:flow.Flow.id ~src:flow.Flow.dst
      ~dst:flow.Flow.src Packet.Grant
  in
  Net.send hs.hs_ctx.Context.net pkt

(* SRPT with overcommitment: grant the K messages with the fewest
   remaining segments a ceiling of received + RTTsegs. *)
let reschedule hs =
  let remaining m = m.rx.Reassembly.nseg - m.rx.Reassembly.received in
  let active =
    List.filter (fun m -> remaining m > 0) hs.inbound
    |> List.sort (fun a b -> compare (remaining a) (remaining b))
  in
  List.iteri
    (fun rank m ->
       if rank < overcommit then begin
         let ceiling =
           min m.rx.Reassembly.nseg (m.rx.Reassembly.received + hs.rtt_segs)
         in
         let grew = ceiling > m.m_granted in
         m.m_granted <- max m.m_granted ceiling;
         (* send a grant when the window grows, and refresh it when
            progress is stuck so the sender learns the in-order point *)
         if grew || m.rx.Reassembly.cum < m.m_granted then
           send_grant hs m ~rank
       end)
    active

let receiver_on_data hs (m : msg) (p : Packet.t) =
  Context.count_op hs.hs_ctx m.sender.Driven.flow.Flow.dst;
  if not p.trimmed then begin
    ignore (Reassembly.mark m.rx p.seq);
    if Reassembly.complete m.rx then begin
      hs.inbound <- List.filter (fun x -> x != m) hs.inbound;
      Driven.finish m.sender
    end;
    reschedule hs
  end

(* ---- wiring -------------------------------------------------------- *)

let make_with ~aeolus ctx =
  let rtt_bytes = ctx.Context.bdp in
  let rtt_segs = max 1 (rtt_bytes / Packet.max_payload) in
  let host_state =
    Driven.per_host ctx (fun () -> { hs_ctx = ctx; rtt_segs; inbound = [] })
  in
  { Endpoint.t_name = (if aeolus then "aeolus" else "homa");
    t_start = (fun flow ->
        let unsched_segs = min flow.Flow.nseg rtt_segs in
        let unsched_prio =
          if aeolus then Prio_queue.n_prios - 1
          else if flow.Flow.size <= rtt_bytes then 0
          else 1
        in
        let s =
          { d = Driven.sender ctx flow; unsched_segs; unsched_prio; aeolus;
            granted = unsched_segs; sched_prio = 2;
            last_cum_change = Sim.now ctx.Context.sim; fast_attempts = 0 }
        in
        let hs = host_state flow.Flow.dst in
        let m =
          { sender = s.d; rx = Reassembly.create flow.Flow.nseg;
            m_granted = unsched_segs }
        in
        hs.inbound <- m :: hs.inbound;
        Driven.start s.d
          ~on_sender:(fun p ->
              match p.Packet.kind with
              | Packet.Grant -> sender_on_grant s p
              | _ -> ())
          ~on_receiver:(fun p ->
              match p.Packet.kind with
              | Packet.Data -> receiver_on_data hs m p
              | _ -> ())
          (* blind first-RTT transmission at line rate *)
          ~first:(fun () -> sender_pump s)
          ~on_timeout:(rto_repair s)) }

let make () = make_with ~aeolus:false
let make_aeolus () = make_with ~aeolus:true
