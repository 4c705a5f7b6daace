(* PPT: the complete pragmatic transport (§2.3, Fig. 4).

   PPT runs its low-priority loop ({!Lcp}) and its flow scheduling
   (buffer-aware identification, {!Flow_ident}, plus mirror-symmetric
   tagging, {!Tagging}) next to a primary loop (HCP) on the shared
   reliable sender. [launch] is the one place that assembles them, for
   any HCP: stock DCTCP (the paper's design), a Swift-like delay loop
   (Fig. 14, §6.2) or HPCC (appendix B). An HCP only has to tell LCP
   when there is spare bandwidth; a new one is one more [hcp] value.

   The [params] knobs turn off one design component at a time for the
   §6.3 ablations:
   - [lcp_ecn = false]   — Fig. 15: opportunistic packets without ECN;
   - [ewd = false]       — Fig. 16: line-rate LCP, no rate halving;
   - [scheduling = false]— Fig. 17: single priority per band;
   - [identification = false] — Fig. 18: all flows start unidentified;
   and [sendbuf] sets the send-buffer model (Fig. 27). *)

open Ppt_transport

type hcp = {
  ecn : bool;                     (* ECN on primary-loop data *)
  attach : Context.t -> Reliable.t -> Dctcp.view;
  (* install the primary loop on a sender; the view is what LCP reads *)
}

let dctcp = { ecn = true; attach = (fun _ snd -> Dctcp.attach snd) }

(* The view of an HCP whose only signal is [spare] ("there is spare
   bandwidth now"): [spare] plays the role of a vanishing alpha, W_max
   tracks the congestion window at each observation-window boundary,
   and the startup phase lasts until the second boundary. *)
let signal_view (snd : Reliable.t) ~spare =
  let wmax = ref 0. in
  let boundaries = ref 0 in
  let on_rtt = ref (fun () -> ()) in
  snd.Reliable.hook_on_window <- (fun s ~f:_ ->
      incr boundaries;
      wmax := Float.max !wmax (Reliable.cwnd s);
      !on_rtt ());
  { Dctcp.alpha = (fun () -> if spare () then 0.0 else 1.0);
    wmax = (fun () -> !wmax);
    in_ca = (fun () -> !boundaries > 1);
    rtt_hook = (fun f -> on_rtt := f) }

(* Swift: spare bandwidth while the measured delay is below target. *)
let swift =
  { ecn = false;
    attach = (fun ctx snd -> signal_view snd ~spare:(Swift.attach ctx snd)) }

(* HPCC (appendix B): "open a PPT LCP loop ... whenever HPCC's
   estimated in-flight bytes are smaller than BDP". The fabric must
   collect inband telemetry. *)
let hpcc =
  { ecn = false;
    attach = (fun ctx snd ->
        Hpcc.attach ctx snd;
        signal_view snd ~spare:(fun () ->
            Reliable.inflight snd < ctx.Context.bdp)) }

type params = {
  sendbuf : Sendbuf.model;
  lcp_ecn : bool;                 (* ECN on opportunistic packets *)
  ewd : bool;                     (* exponential window decreasing *)
  scheduling : bool;              (* mirror-symmetric tagging *)
  identification : bool;          (* buffer-aware identification *)
}

let default =
  { sendbuf = Sendbuf.default; lcp_ecn = true; ewd = true;
    scheduling = true; identification = true }

let launch ~name ~hcp params ctx =
  let ident = Flow_ident.make ~model:params.sendbuf () in
  { Endpoint.t_name = name;
    t_start = (fun flow ->
        let identified =
          params.identification
          && Flow_ident.identify ident ctx.Context.rng
               ~flow_size:flow.Flow.size
        in
        let tagger =
          if params.scheduling then begin
            let tag = Tagging.make ~identified_large:identified () in
            fun ~bytes_sent ~loop -> Tagging.prio tag ~loop ~bytes_sent
          end else
            fun ~bytes_sent ~loop -> Tagging.unscheduled ~loop ~bytes_sent
        in
        let rel_params =
          Reliable.default_params ~ecn_capable:hcp.ecn
            ~lcp_ecn_capable:params.lcp_ecn
            ~sendbuf_bytes:params.sendbuf.Sendbuf.capacity ~tagger ()
        in
        Endpoint.launch_window_flow ctx ~params:rel_params ~lcp_batch:2
          ~setup:(fun snd ->
              let view = hcp.attach ctx snd in
              let lcp =
                Lcp.create ctx snd view ~ewd:params.ewd
                  ~identified_large:identified ()
              in
              Lcp.start lcp;
              fun () -> Lcp.shutdown lcp)
          flow) }

let make () = launch ~name:"ppt" ~hcp:dctcp default
let make_swift () = launch ~name:"ppt-swift" ~hcp:swift default
let make_hpcc () = launch ~name:"ppt-hpcc" ~hcp:hpcc default

(* Ablation constructors used by the Fig. 15-18 experiments. *)

let without_lcp_ecn () =
  launch ~name:"ppt-no-lcp-ecn" ~hcp:dctcp { default with lcp_ecn = false }

let without_ewd () =
  launch ~name:"ppt-no-ewd" ~hcp:dctcp { default with ewd = false }

let without_scheduling () =
  launch ~name:"ppt-no-sched" ~hcp:dctcp { default with scheduling = false }

let without_identification () =
  launch ~name:"ppt-no-ident" ~hcp:dctcp
    { default with identification = false }

let with_sendbuf capacity =
  launch ~name:(Printf.sprintf "ppt-sb-%dK" (capacity / 1000)) ~hcp:dctcp
    { default with sendbuf = Sendbuf.make ~capacity () }
