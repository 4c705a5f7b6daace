(* Parallel figure sweeps: the glue between the figure registry
   (Figures) and the fork-based sweep runner (lib/sweep).

   Each experiment decomposes into work units; a unit's payload is its
   rendered text fragment plus the number of simulator events it
   processed (measured inside the worker, so event counts survive the
   process boundary). Fragments are merged in canonical unit order,
   which makes the merged output byte-identical to a serial
   [Figures.render] of the same experiments — whatever [jobs] is. *)

(* GC activity of one shard, measured inside the worker process that
   ran it. The word counts are deltas over the shard. A worker serves
   many shards in turn (and at [jobs = 1] every shard runs in the one
   sweeping process), so [g_top_heap_words] is that process's peak heap
   so far: it never falls across the shards the process ran, and it is
   not the shard's own peak. *)
type gc_info = {
  g_minor_words : float;    (* words allocated on the minor heap *)
  g_major_words : float;    (* words allocated on/promoted to the major *)
  g_top_heap_words : int;   (* the process's peak heap so far, in words *)
}

type shard_info = {
  sh_key : string;       (* "<experiment>/<unit>" *)
  sh_wall : float;
  sh_attempts : int;
  sh_cached : bool;      (* restored from the resume journal *)
  sh_events : int;
  sh_failed : bool;
  sh_gc : gc_info option;   (* None for failed shards *)
}

type result = {
  output : string;       (* fragments merged in canonical order *)
  jobs : int;
  wall : float;          (* whole-sweep wall-clock seconds *)
  events : int;          (* simulator events across all shards *)
  resumed : int;
  shards : shard_info list;     (* canonical order *)
  failures : (string * string) list;  (* key, reason *)
}

(* Decompose [ids] into sweep unit specs, keys "<id>/<unit>".
   Raises [Invalid_argument] on an unknown experiment id. *)
let unit_specs ids (opts : Figures.opts) =
  List.concat_map
    (fun id ->
       match Figures.find id with
       | None -> invalid_arg ("Parallel.sweep: unknown experiment " ^ id)
       | Some e ->
         List.map
           (fun u ->
              { Ppt_sweep.Sweep.key = id ^ "/" ^ u.Figures.u_name;
                run =
                  (fun () ->
                     let s0 = Gc.quick_stat () in
                     let frag, ev =
                       Runner.with_events_counted (fun () ->
                           Figures.render_unit u)
                     in
                     let s1 = Gc.quick_stat () in
                     ( frag, ev,
                       { g_minor_words =
                           s1.Gc.minor_words -. s0.Gc.minor_words;
                         g_major_words =
                           s1.Gc.major_words -. s0.Gc.major_words;
                         g_top_heap_words = s1.Gc.top_heap_words } )) })
           (e.Figures.e_units opts))
    ids

let sweep_dir = "_sweep"

let ensure_dir d =
  try Unix.mkdir d 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Default journal location: one file per (experiment set, opts), so a
   resumed sweep can only ever meet a journal of the same sweep. The
   sweep header re-checks the full key list anyway. *)
let default_journal ids (o : Figures.opts) =
  let d =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s|%g|%d|%b" (String.concat "," ids)
            o.Figures.flows_scale o.Figures.seed o.Figures.full))
  in
  Filename.concat sweep_dir ("sweep-" ^ String.sub d 0 12 ^ ".journal")

let sweep ?(jobs = 1) ?timeout ?retries ?journal ?(resume = false)
    ?progress ~ids opts =
  let specs = unit_specs ids opts in
  (match journal with
   | Some path ->
     let dir = Filename.dirname path in
     if dir <> "." then ensure_dir dir
   | None -> ());
  let r =
    Ppt_sweep.Sweep.run ~jobs ?timeout ?retries ?journal ~resume
      ?progress specs
  in
  let buf = Buffer.create 4096 in
  let events = ref 0 in
  let failures = ref [] in
  let shards =
    List.map
      (fun (s : _ Ppt_sweep.Sweep.shard) ->
         let ev, gc, failed =
           match s.Ppt_sweep.Sweep.s_outcome with
           | Ppt_sweep.Sweep.Done ((frag : string), ev, gc) ->
             Buffer.add_string buf frag;
             (ev, Some gc, false)
           | Ppt_sweep.Sweep.Failed msg ->
             Buffer.add_string buf
               (Printf.sprintf "(!) shard %s failed: %s\n"
                  s.Ppt_sweep.Sweep.s_key msg);
             failures := (s.Ppt_sweep.Sweep.s_key, msg) :: !failures;
             (0, None, true)
         in
         events := !events + ev;
         { sh_key = s.Ppt_sweep.Sweep.s_key;
           sh_wall = s.Ppt_sweep.Sweep.s_wall;
           sh_attempts = s.Ppt_sweep.Sweep.s_attempts;
           sh_cached = s.Ppt_sweep.Sweep.s_cached;
           sh_events = ev;
           sh_failed = failed;
           sh_gc = gc })
      r.Ppt_sweep.Sweep.shards
  in
  { output = Buffer.contents buf;
    jobs = r.Ppt_sweep.Sweep.r_jobs;
    wall = r.Ppt_sweep.Sweep.r_wall;
    events = !events;
    resumed = r.Ppt_sweep.Sweep.r_resumed;
    shards;
    failures = List.rev !failures }
