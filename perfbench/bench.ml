(* Benchmark worker: one process runs one job and prints its numbers
   as a single JSON object on stdout. perfbench/run.py starts a fresh
   worker per scheme and measurement, so the GC counters and the peak
   RSS it reports belong to that one simulation run.

   Every number is taken from outside the simulator: the worker calls
   the same public functions [Runner.run] calls, in the same order,
   and reads the clock between them. Nothing under lib/ is changed or
   wrapped.

     bench.exe run    --workload W --seed N --scheme S   span timers off
     bench.exe spans  --workload W --seed N --scheme S   timer around t_start
     bench.exe setup  --workload W --seed N --scheme S   set-up phases only
     bench.exe check  --workload W --seed N   Runner.run reference, all schemes
     bench.exe layers --workload W --seed N   log capture + replays, all schemes

   [--scale F] multiplies the workload's byte budget (the self-test
   uses a tiny one). *)

open Ppt_engine
open Ppt_netsim
open Ppt_workload
open Ppt_stats
open Ppt_transport
open Ppt_harness
module Obs = Ppt_obs

let clock () = Int64.to_int (Monotonic_clock.now ())

(* ---------- workloads ----------

   All three use the fig12 fabric: the oversubscribed 32-host
   leaf-spine (4 leaves x 8 hosts at 40G, 2 spines at 100G), load 0.5,
   all-to-all traffic, the six headline schemes run one after another.

   - websearch_fabric: fig12's web-search sizes. A flow is ~20k
     simulated events, so per-packet work in the engine and the
     fabric dominates and set-up is a sliver of the run. Engine and
     fabric gains show in run_s / cpu_s here first.
   - memcached_fabric: fig21's memcached sizes (>70% under 1000 B).
     A flow is ~60 events, so per-flow work is a large share: flow
     start (transport.flow_start_us), trace generation
     (workload.generate_s) and FCT summarising (stats.summarize_s).
     The fabric is shared with websearch_fabric, so a per-packet gain
     that costs per-flow work shows up as a loss here.
   - websearch_logged: the websearch fabric with every run writing the
     binary event log, which is then read back the way
     `ppt_trace decode` + `summary` read it: binary decode of the whole
     log, then canonical JSONL, JSONL parse and Summary of its first
     [read_head] events. The obs layer does ~0 work in the
     other two workloads and most of the work here: writing moves
     run_s, reading moves cpu_s. All six schemes run so that every
     transport's event mix goes through the codecs.

   Which per-layer metric should move which end-to-end metric is
   listed with each metric in run.py. *)

type workload = {
  name : string;
  cdf : Cdf.t;
  cdf_name : string;
  budget : int;      (* byte-links per scheme at scale 1 *)
  logged : bool;
}

let workloads =
  [ { name = "websearch_fabric"; cdf = Dists.web_search;
      cdf_name = "web-search"; budget = Units.mb 600; logged = false };
    { name = "memcached_fabric"; cdf = Dists.memcached;
      cdf_name = "memcached"; budget = Units.mb 270; logged = false };
    { name = "websearch_logged"; cdf = Dists.web_search;
      cdf_name = "web-search"; budget = Units.mb 110; logged = true } ]

let budget w ~scale =
  max 10_000 (int_of_float (float_of_int w.budget *. scale))

(* [n_flows] is how many flows [gen_flows] draws first: the expected
   count (a flow averages ~3.5 links) plus four standard deviations of
   it for sizes whose coefficient of variation is at most 3, so the
   draw almost never falls short of the budget. *)
let config w ~seed ~budget =
  let n_flows =
    let e = float_of_int budget /. (3.5 *. Cdf.mean w.cdf) in
    int_of_float (e +. (12. *. sqrt e)) + 20
  in
  Config.oversub ~scale:4 ~n_flows ~load:0.5 ~seed ()
  |> Config.with_workload ~name:w.cdf_name w.cdf

(* Every scheme offers the fabric exactly [budget] byte-links: a
   flow's size times the links on its path (2 within a leaf, 4 across
   the spine). The generated trace is cut where its running total
   reaches the budget and the flow that crosses it is shortened to
   fit. Run time follows byte-links, and web-search sizes are
   heavy-tailed, so with a fixed flow count run time swings by tens of
   percent from seed to seed.

   The trace comes from the stream Runner.run would draw it from, so
   it is a prefix of the trace Runner.run generates itself, and a
   longer trace drawn when the first falls short keeps that prefix. *)
let gen_flows cfg topo ~budget =
  let leaf h = fst (topo.Topology.to_host_port h) in
  let links (s : Trace.spec) =
    if leaf s.Trace.src = leaf s.Trace.dst then 2 else 4
  in
  let rec cut acc total = function
    | [] -> None
    | (s : Trace.spec) :: rest ->
      let w = links s in
      if total + (s.Trace.size * w) >= budget then
        Some
          (List.rev
             ({ s with Trace.size = max 1 ((budget - total) / w) } :: acc))
      else cut (s :: acc) (total + (s.Trace.size * w)) rest
  in
  let rec draw n_flows =
    let specs =
      Trace.generate ~rng:(Rng.split (Rng.create cfg.Config.seed))
        ~cdf:cfg.Config.workload ~pattern:(Runner.pattern_of cfg topo)
        ~edge_rate:topo.Topology.edge_rate ~load:cfg.Config.load ~n_flows ()
    in
    match cut [] 0 specs with
    | Some specs -> specs
    | None -> draw (2 * n_flows)
  in
  draw cfg.Config.n_flows

(* ---------- phase-timed run ---------- *)

type measured = {
  specs : Trace.spec list;
  phase_ns : int array;
  (* set-up phases, in order: topology build, context, trace
     generation, transport creation, flow scheduling *)
  run_ns : int;               (* Sim.run, plus log flush when logged *)
  summarize_ns : int;
  flow_start_ns : int;        (* inside t_start; spans mode only *)
  minor_words_run : float;    (* allocated during Sim.run *)
  requested : int;
  completed : int;
  events : int;
  pending : int;
  delivered : int;
  drops : int;
  marks : int;
  tx_bytes : int;
  retrans : int;
  lcp_bytes : int;
  records : Fct.record list;
}

type prepared = {
  sim : Sim.t;
  ctx : Context.t;
  p_specs : Trace.spec list;
  p_requested : int;
  p_phase_ns : int array;
  p_flow_start_ns : int ref;
}

(* Runner.run's set-up steps for a budget-cut trace, in its order,
   with the clock read between them. With [spans], the time spent
   inside each flow's t_start is summed as well. *)
let prepare ~spans ~budget cfg scheme =
  let t0 = clock () in
  let sim = Sim.create () in
  let topo = Runner.build_topology sim cfg scheme ~lp_buffer_cap:None in
  let t1 = clock () in
  let rng = Rng.create cfg.Config.seed in
  let ctx = Context.of_topology ~rto_min:cfg.Config.rto_min ~rng topo in
  let t2 = clock () in
  let specs = gen_flows cfg topo ~budget in
  let t3 = clock () in
  let transport = scheme.Schemes.s_factory ctx in
  let t4 = clock () in
  let requested = List.length specs in
  ctx.Context.on_complete <- (fun _ ->
      if ctx.Context.completed = requested then Sim.stop sim);
  let flow_start_ns = ref 0 in
  let start =
    if spans then (fun flow ->
        let a = clock () in
        transport.Endpoint.t_start flow;
        flow_start_ns := !flow_start_ns + (clock () - a))
    else transport.Endpoint.t_start
  in
  List.iter
    (fun spec ->
       ignore (Sim.schedule_at sim spec.Trace.start (fun () ->
           let flow = Flow.of_spec spec in
           Context.flow_started ctx flow;
           start flow)))
    specs;
  let t5 = clock () in
  { sim; ctx; p_specs = specs; p_requested = requested;
    p_phase_ns = [| t1 - t0; t2 - t1; t3 - t2; t4 - t3; t5 - t4 |];
    p_flow_start_ns = flow_start_ns }

(* [prepare], then Runner.run's run and summarise steps. [sink] is
   installed for Sim.run only; its finaliser (flush and close) counts
   as run time. *)
let drive ?sink ?(spans = false) ~budget cfg scheme =
  let p = prepare ~spans ~budget cfg scheme in
  let sim = p.sim and ctx = p.ctx in
  let t5 = clock () in
  let w0 = Gc.minor_words () in
  (match sink with
   | None -> Sim.run ~until:Runner.horizon sim
   | Some (sink, finish) ->
     Fun.protect
       ~finally:(fun () -> Obs.Trace.clear (); finish ())
       (fun () ->
          Obs.Trace.install sink;
          Sim.run ~until:Runner.horizon sim));
  let t6 = clock () in
  let minor_words_run = Gc.minor_words () -. w0 in
  let summary = Fct.summarize ctx.Context.fct in
  let t7 = clock () in
  let net = ctx.Context.net in
  { specs = p.p_specs; phase_ns = p.p_phase_ns; run_ns = t6 - t5;
    summarize_ns = t7 - t6; flow_start_ns = !(p.p_flow_start_ns);
    minor_words_run; requested = p.p_requested;
    completed = ctx.Context.completed;
    events = Sim.events_processed sim; pending = Sim.pending sim;
    delivered = Net.delivered net; drops = Net.total_drops net;
    marks = Net.total_marks net; tx_bytes = Net.total_tx_bytes net;
    retrans = summary.Fct.total_retrans;
    lcp_bytes = summary.Fct.lcp_bytes;
    records = Fct.records ctx.Context.fct }

let setup_ns phase_ns = Array.fold_left ( + ) 0 phase_ns

(* ---------- digests ---------- *)

let records_digest records =
  Digest.to_hex (Digest.string (Marshal.to_string records []))

(* The results digest: every flow's id and finish time, in order. *)
let finish_digest records =
  let b = Buffer.create 4096 in
  List.iter
    (fun (x : Fct.record) ->
       Buffer.add_string b (string_of_int x.Fct.flow);
       Buffer.add_char b ':';
       Buffer.add_string b (string_of_int x.Fct.finish);
       Buffer.add_char b ' ')
    records;
  Digest.to_hex (Digest.string (Buffer.contents b))

let mix h ts ev = (h * 1_000_003 + Hashtbl.hash (ts, ev)) land max_int

let summary_digest (s : Obs.Summary.t) =
  Digest.to_hex (Digest.string (Marshal.to_string s []))

(* ---------- event log ---------- *)

let log_body path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let m = String.length Obs.Event.bin_magic in
  if String.length s < m || String.sub s 0 m <> Obs.Event.bin_magic then
    failwith (path ^ ": not a binary event log");
  (s, m)

let binary_sink path =
  let oc = open_out_bin path in
  let sink, flush = Obs.Trace.binary_sink oc in
  (sink, fun () -> flush (); close_out oc)

type readback = {
  n_events : int;
  hash : int;                 (* every event, as binary-decoded *)
  head_hash : int;            (* the first [read_head], as parsed back *)
  head_summary : Obs.Summary.t;
}

(* How many events of each log go all the way through the read-back.
   Binary decode is a quarter of the simulation's cost per event, but
   JSONL and Summary are ~30 times it: read back in full, they made
   the run a sliver of each measurement and run_s too noisy. *)
let read_head = 5_000

(* Every event of the log is binary-decoded and hashed. The first
   [read_head] also go the rest of the way `ppt_trace decode` and then
   `ppt_trace summary` take them: canonical JSONL, JSONL parse,
   Summary. *)
let read_back path =
  let s, m = log_body path in
  let pos = ref m in
  let rec go n h hh sum =
    match Obs.Event.of_binary s pos with
    | None -> { n_events = n; hash = h; head_hash = hh; head_summary = sum }
    | Some (ts, ev) when n >= read_head -> go (n + 1) (mix h ts ev) hh sum
    | Some (ts, ev) ->
      let line = Obs.Event.to_json_line ~ts ev in
      (match Obs.Event.of_json_line line with
       | None -> failwith ("unparseable event: " ^ line)
       | Some (ts', ev') ->
         go (n + 1) (mix h ts ev) (mix hh ts' ev')
           (Obs.Summary.add sum ts' ev'))
  in
  go 0 0 0 (Obs.Summary.create ())

(* ---------- output ---------- *)

type v = I of int | F of float | S of string

let emit fields =
  let value = function
    | I i -> string_of_int i
    | F f -> Printf.sprintf "%.17g" f
    | S s -> Printf.sprintf "%S" s
  in
  print_endline
    ("{"
     ^ String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (value v)) fields)
     ^ "}")

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
  in
  let v = go () in
  close_in ic;
  v

let process_fields () =
  let g = Gc.quick_stat () in
  let t = Unix.times () in
  [ ("cpu_s", F (t.Unix.tms_utime +. t.Unix.tms_stime));
    ("vm_hwm_kb", I (vm_hwm_kb ()));
    ("gc.minor_words", I (int_of_float g.Gc.minor_words));
    ("gc.major_words", I (int_of_float g.Gc.major_words));
    ("gc.major_collections", I g.Gc.major_collections);
    ("gc.top_heap_words", I g.Gc.top_heap_words);
    ("netsim.pool_size", I (Packet.pool_size ())) ]

let run_fields r =
  [ ("requested", I r.requested);
    ("completed", I r.completed);
    ("run_ns", I (r.run_ns + r.summarize_ns));
    ("sim_run_ns", I r.run_ns);
    ("setup_ns", I (setup_ns r.phase_ns));
    ("build_ns", I r.phase_ns.(0));
    ("generate_ns", I r.phase_ns.(2));
    ("summarize_ns", I r.summarize_ns);
    ("flow_start_ns", I r.flow_start_ns);
    ("engine.events", I r.events);
    ("engine.pending_at_stop", I r.pending);
    ("netsim.delivered", I r.delivered);
    ("netsim.drops", I r.drops);
    ("netsim.marks", I r.marks);
    ("netsim.tx_bytes", I r.tx_bytes);
    ("transport.retransmits", I r.retrans);
    ("core.lcp_bytes", I r.lcp_bytes);
    ("records", S (records_digest r.records));
    ("finish", S (finish_digest r.records)) ]

(* ---------- modes ---------- *)

let log_path tmp w scheme =
  Filename.concat tmp (w.name ^ "." ^ scheme.Schemes.s_name ^ ".bin")

(* One measurement of one scheme. In a logged workload the scheme
   writes its event log during Sim.run and reads it back right
   after. *)
let mode_run ~spans ~tmp ~budget w cfg scheme =
  let r, log_fields =
    if w.logged then begin
      let path = log_path tmp w scheme in
      let r = drive ~sink:(binary_sink path) ~spans ~budget cfg scheme in
      let a = clock () in
      let rb = read_back path in
      let read_ns = clock () - a in
      let bytes = (Unix.stat path).Unix.st_size in
      Sys.remove path;
      (r,
       [ ("log_read_ns", I read_ns); ("obs.log_events", I rb.n_events);
         ("log_bytes", I bytes); ("log_hash", I rb.hash);
         ("log_head_hash", I rb.head_hash);
         ("log_summary", S (summary_digest rb.head_summary)) ])
    end
    else (drive ~spans ~budget cfg scheme, [])
  in
  emit (run_fields r @ log_fields @ process_fields ())

(* Set-up alone, as a fresh process pays it: the scheme's set-up
   phases, nothing run. *)
let mode_setup ~budget cfg scheme =
  let p = prepare ~spans:false ~budget cfg scheme in
  emit [ ("setup_ns", I (setup_ns p.p_phase_ns)) ]

(* The reference: Runner.run on the same config and trace, and for a
   logged workload the events the simulation emits, hashed as they
   are emitted (no codec in between). *)
let mode_check ~budget w cfg =
  let fields scheme =
    let name = scheme.Schemes.s_name in
    let topo =
      Runner.build_topology (Sim.create ()) cfg scheme ~lp_buffer_cap:None
    in
    let r = Runner.run ~trace:(gen_flows cfg topo ~budget) cfg scheme in
    [ (name ^ ".records", S (records_digest r.Runner.records));
      (name ^ ".completed", I r.Runner.completed);
      (name ^ ".requested", I r.Runner.requested) ]
    @
    if not w.logged then []
    else begin
      let n = ref 0 and h = ref 0 and hh = ref 0
      and s = ref (Obs.Summary.create ()) in
      let sink ts ev =
        h := mix !h ts ev;
        if !n < read_head then begin
          hh := mix !hh ts ev;
          s := Obs.Summary.add !s ts ev
        end;
        incr n
      in
      ignore (drive ~sink:(sink, ignore) ~budget cfg scheme);
      [ (name ^ ".log_hash", I !h); (name ^ ".log_head_hash", I !hh);
        (name ^ ".log_summary", S (summary_digest !s)) ]
    end
  in
  emit
    (("ocaml", S Sys.ocaml_version)
     :: List.concat_map fields Schemes.headline)

(* ---------- replays (layers mode) ---------- *)

(* Growable int columns for the decoded log. *)
module Col = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push c x =
    if c.n = Array.length c.a then begin
      let b = Array.make (2 * c.n) 0 in
      Array.blit c.a 0 b 0 c.n;
      c.a <- b
    end;
    c.a.(c.n) <- x;
    c.n <- c.n + 1
end

let kind_of_tag = function
  | 'D' -> Packet.Data | 'A' -> Packet.Ack | 'G' -> Packet.Grant
  | 'P' -> Packet.Pull | 'N' -> Packet.Nack | _ -> Packet.Ctrl

(* Engine replay: every logged dequeue schedules its tx-done and
   far-end arrival as no-op timers, at the offsets the port's rate and
   delay give, through Sim's public schedule/run. A feeder timer walks
   the log in time order. *)
let engine_replay ~ts ~tx ~arrive n =
  let sim = Sim.create () in
  let noop () = () in
  let i = ref 0 in
  let rec feed () =
    let now = Sim.now sim in
    while !i < n && ts.(!i) = now do
      ignore (Sim.schedule sim ~after:tx.(!i) noop);
      ignore (Sim.schedule sim ~after:arrive.(!i) noop);
      incr i
    done;
    if !i < n then ignore (Sim.schedule_at sim ts.(!i) feed)
  in
  if n > 0 then ignore (Sim.schedule_at sim ts.(0) feed);
  let a = clock () in
  Sim.run sim;
  (clock () - a, Sim.events_processed sim)

(* Fabric replay: the captured host-NIC packet stream injected
   open-loop with Net.send into a fresh topology whose hosts only sink
   what they receive. *)
let fabric_replay cfg scheme ~specs (s : Col.t array) =
  let sim = Sim.create () in
  let topo = Runner.build_topology sim cfg scheme ~lp_buffer_cap:None in
  let net = topo.Topology.net in
  let sink _ = () in
  List.iter
    (fun sp ->
       Net.register net ~host:sp.Trace.src ~flow:sp.Trace.id sink;
       Net.register net ~host:sp.Trace.dst ~flow:sp.Trace.id sink)
    specs;
  let ts = s.(0).Col.a and src = s.(1).Col.a and dst = s.(2).Col.a
  and flow = s.(3).Col.a and seq = s.(4).Col.a and kind = s.(5).Col.a
  and payload = s.(6).Col.a and prio = s.(7).Col.a in
  let n = s.(0).Col.n in
  let i = ref 0 in
  let rec feed () =
    let now = Sim.now sim in
    while !i < n && ts.(!i) = now do
      let j = !i in
      let k = kind_of_tag (Char.chr kind.(j)) in
      Net.send net
        (Packet.make ~seq:seq.(j) ~payload:payload.(j) ~prio:prio.(j)
           ~loop:(if prio.(j) >= Prio_queue.lp_band_start then L else H)
           ~ecn_capable:(k = Packet.Data) ~flow:flow.(j) ~src:src.(j)
           ~dst:dst.(j) k);
      incr i
    done;
    if !i < n then ignore (Sim.schedule_at sim ts.(!i) feed)
  in
  if n > 0 then ignore (Sim.schedule_at sim ts.(0) feed);
  let a = clock () in
  Sim.run sim;
  let wall = clock () - a in
  let hops = ref 0 in
  for nid = 0 to Net.n_nodes net - 1 do
    Array.iter
      (fun p -> hops := !hops + Prio_queue.enqueues p.Net.q)
      (Net.node net nid).Net.ports
  done;
  (wall, !hops)

let json_sample = 100_000

(* Per-stage cost of reading a log, on its first [json_sample]
   events; the parsed events must equal the decoded ones. *)
let read_stages s m =
  let pos = ref m in
  let rec take acc k =
    if k = 0 then acc
    else
      match Obs.Event.of_binary s pos with
      | None -> acc
      | Some e -> take (e :: acc) (k - 1)
  in
  let evs = Array.of_list (List.rev (take [] json_sample)) in
  let a = clock () in
  let lines = Array.map (fun (ts, ev) -> Obs.Event.to_json_line ~ts ev) evs in
  let b = clock () in
  let parsed =
    Array.map
      (fun l ->
         match Obs.Event.of_json_line l with
         | Some e -> e
         | None -> failwith ("unparseable event: " ^ l))
      lines
  in
  let c = clock () in
  ignore
    (Array.fold_left
       (fun acc (ts, ev) -> Obs.Summary.add acc ts ev)
       (Obs.Summary.create ()) parsed);
  let d = clock () in
  (Array.length evs, b - a, c - b, d - c, parsed = evs)

type layer_acc = {
  mutable plain_run_ns : int;
  mutable log_run_ns : int;
  mutable log_minor_words : float;
  mutable plain_minor_words : float;
  mutable n_events : int;
  mutable n_bytes : int;
  mutable decode_ns : int;
  mutable sample : int;
  mutable enc_ns : int;
  mutable parse_ns : int;
  mutable summ_ns : int;
  mutable codec_ok : bool;
  mutable eng_ns : int;
  mutable eng_timers : int;
  mutable fab_ns : int;
  mutable fab_hops : int;
  mutable self_ns : int;
}

(* Capture each scheme's binary event log once, then drive the engine
   and fabric replays and the codec stages from it. *)
let mode_layers ~tmp ~budget w cfg =
  let acc =
    { plain_run_ns = 0; log_run_ns = 0; log_minor_words = 0.;
      plain_minor_words = 0.; n_events = 0; n_bytes = 0; decode_ns = 0;
      sample = 0; enc_ns = 0; parse_ns = 0; summ_ns = 0;
      codec_ok = true; eng_ns = 0; eng_timers = 0; fab_ns = 0;
      fab_hops = 0; self_ns = 0 }
  in
  List.iter
    (fun scheme ->
       let plain = drive ~budget cfg scheme in
       let path = log_path tmp w scheme in
       let logged = drive ~sink:(binary_sink path) ~budget cfg scheme in
       acc.plain_run_ns <- acc.plain_run_ns + plain.run_ns;
       acc.log_run_ns <- acc.log_run_ns + logged.run_ns;
       acc.plain_minor_words <- acc.plain_minor_words +. plain.minor_words_run;
       acc.log_minor_words <- acc.log_minor_words +. logged.minor_words_run;
       let s, m = log_body path in
       Sys.remove path;
       acc.n_bytes <- acc.n_bytes + String.length s;
       (* pure decode pass *)
       let pos = ref m and n = ref 0 in
       let a = clock () in
       while Obs.Event.of_binary s pos <> None do incr n done;
       acc.decode_ns <- acc.decode_ns + (clock () - a);
       acc.n_events <- acc.n_events + !n;
       let k, enc, parse, summ, ok = read_stages s m in
       acc.sample <- acc.sample + k;
       acc.enc_ns <- acc.enc_ns + enc;
       acc.parse_ns <- acc.parse_ns + parse;
       acc.summ_ns <- acc.summ_ns + summ;
       acc.codec_ok <- acc.codec_ok && ok;
       (* columns for the replays *)
       let topo =
         Runner.build_topology (Sim.create ()) cfg scheme ~lp_buffer_cap:None
       in
       let net = topo.Topology.net in
       let specs = Array.of_list logged.specs in
       let peer_of host f =
         let sp = specs.(f) in
         if sp.Trace.src = host then sp.Trace.dst else sp.Trace.src
       in
       let dq = Array.init 3 (fun _ -> Col.create ()) in
       let snd = Array.init 8 (fun _ -> Col.create ()) in
       let send ts node flow seq kind size prio =
         let payload =
           if kind = 'D' then size - Packet.header_bytes else 0
         in
         List.iteri (fun c x -> Col.push snd.(c) x)
           [ ts; node; peer_of node flow; flow; seq; Char.code kind;
             payload; prio ]
       in
       let is_host node = (Net.node net node).Net.is_host in
       pos := m;
       let rec go () =
         match Obs.Event.of_binary s pos with
         | None -> ()
         | Some (ts, ev) ->
           (match ev with
            | Obs.Event.Dequeue { node; port; size; _ } ->
              let p = Net.port net node port in
              let tx = Units.tx_time ~rate:p.Net.rate ~bytes:size in
              Col.push dq.(0) ts;
              Col.push dq.(1) tx;
              Col.push dq.(2) (tx + p.Net.delay)
            | Enqueue { node; flow; seq; kind; size; prio; _ }
            | Drop { node; flow; seq; kind; size; prio; _ }
              when is_host node ->
              send ts node flow seq kind size prio
            | Trim { node; flow; seq; cut; prio; _ } when is_host node ->
              send ts node flow seq 'D' (cut + Packet.header_bytes) prio
            | _ -> ());
           go ()
       in
       go ();
       let eng_ns, timers =
         engine_replay ~ts:dq.(0).Col.a ~tx:dq.(1).Col.a
           ~arrive:dq.(2).Col.a dq.(0).Col.n
       in
       acc.eng_ns <- acc.eng_ns + eng_ns;
       acc.eng_timers <- acc.eng_timers + timers;
       let fab_ns, hops = fabric_replay cfg scheme ~specs:logged.specs snd in
       acc.fab_ns <- acc.fab_ns + fab_ns;
       acc.fab_hops <- acc.fab_hops + hops;
       acc.self_ns <- acc.self_ns + (plain.run_ns - fab_ns))
    Schemes.headline;
  let per n d = float_of_int n /. float_of_int (max 1 d) in
  emit
    [ ("engine.replay_ns_per_timer", F (per acc.eng_ns acc.eng_timers));
      ("engine.replay_timers", I acc.eng_timers);
      ("netsim.replay_ns_per_hop", F (per acc.fab_ns acc.fab_hops));
      ("netsim.replay_hops", I acc.fab_hops);
      ("transport.self_s", F (float_of_int acc.self_ns /. 1e9));
      ("obs.write_ns_per_event",
       F (per (acc.log_run_ns - acc.plain_run_ns) acc.n_events));
      ("obs.minor_words_per_event",
       F ((acc.log_minor_words -. acc.plain_minor_words)
          /. float_of_int (max 1 acc.n_events)));
      ("obs.log_events", I acc.n_events);
      ("obs.log_mb", F (float_of_int acc.n_bytes /. 1e6));
      ("obs.bytes_per_event", F (per acc.n_bytes acc.n_events));
      ("obs.decode_bin_ns", F (per acc.decode_ns acc.n_events));
      ("obs.encode_json_ns", F (per acc.enc_ns acc.sample));
      ("obs.parse_json_ns", F (per acc.parse_ns acc.sample));
      ("obs.summary_ns", F (per acc.summ_ns acc.sample));
      ("codec_ok", I (if acc.codec_ok then 1 else 0)) ]

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and scheme = ref "" and seed = ref 1
  and scale = ref 1.0
  and tmp = ref Filename.current_dir_name in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--scheme", Arg.Set_string scheme, "NAME headline scheme");
      ("--scale", Arg.Set_float scale, "F byte-budget multiplier");
      ("--tmp", Arg.Set_string tmp, "DIR where event logs are written") ]
  in
  let mode = ref "" in
  Arg.parse spec (fun m -> mode := m) "bench.exe MODE [options]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> prerr_endline ("unknown workload: " ^ !workload); exit 2
  in
  let budget = budget w ~scale:!scale in
  let cfg = config w ~seed:!seed ~budget in
  let scheme () =
    match
      List.find_opt (fun s -> s.Schemes.s_name = !scheme) Schemes.headline
    with
    | Some s -> s
    | None -> prerr_endline ("unknown scheme: " ^ !scheme); exit 2
  in
  match !mode with
  | "run" -> mode_run ~spans:false ~tmp:!tmp ~budget w cfg (scheme ())
  | "spans" -> mode_run ~spans:true ~tmp:!tmp ~budget w cfg (scheme ())
  | "setup" -> mode_setup ~budget cfg (scheme ())
  | "check" -> mode_check ~budget w cfg
  | "layers" -> mode_layers ~tmp:!tmp ~budget w cfg
  | m -> prerr_endline ("unknown mode: " ^ m); exit 2
