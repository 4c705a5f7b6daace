(* Structured trace events and their canonical JSONL encoding.

   The encoding is deliberately boring: one flat JSON object per line,
   fixed key order, integer values (utilization is parts-per-million so
   no floats appear). Equal events therefore serialize to equal bytes,
   which is what lets golden-trace tests and `ppt_trace diff` compare
   traces textually. The parser only has to read back what
   [to_json_line] writes; it is not a general JSON parser. *)

type t =
  | Enqueue of {
      node : int; port : int; prio : int;
      flow : int; seq : int; kind : char; size : int; occ : int;
    }
  | Dequeue of {
      node : int; port : int; prio : int;
      flow : int; seq : int; kind : char; size : int; occ : int;
    }
  | Ecn_mark of {
      node : int; port : int; prio : int;
      flow : int; seq : int; occ : int; threshold : int;
    }
  | Drop of {
      node : int; port : int; prio : int;
      flow : int; seq : int; kind : char; size : int; occ : int;
    }
  | Trim of {
      node : int; port : int; prio : int;
      flow : int; seq : int; cut : int; occ : int;
    }
  | Cwnd_update of { flow : int; cwnd : int }
  | Loop_switch of { flow : int; active : bool; window : int }
  | Rto_fire of { flow : int; backoff : int }
  | Retransmit of { flow : int; seq : int; loop : char }
  | Flow_start of { flow : int; size : int }
  | Flow_done of { flow : int; size : int; fct : int }
  | Probe_queue of { node : int; port : int; occ : int; lp_occ : int }
  | Probe_link of {
      node : int; port : int; tx_bytes : int; util_ppm : int;
    }
  | Probe_dt of { node : int; port : int; hp : int; lp : int }
  | Link_down of { node : int; port : int }
  | Link_up of { node : int; port : int }
  | Link_degrade of {
      node : int; port : int; rate_ppm : int; extra_delay : int;
    }
  | Fault_drop of {
      node : int; port : int; flow : int; seq : int;
      kind : char; size : int; reason : char;
    }

(* --- schema ----------------------------------------------------------

   The one per-variant description every codec is derived from, indexed
   by the binary tag: the JSONL name and the fields in wire order. Adding
   an event means one row here plus one arm each in [load] and [build]
   (and, if [Summary] counts it, one arm there). *)

type kind = Int | Char | Bool

let schema =
  let[@inline] i k = (k, Int) and c k = (k, Char) in
  let pkt = List.map i [ "node"; "port"; "prio"; "flow"; "seq" ] in
  let queue = pkt @ [ c "kind"; i "size"; i "occ" ] in
  let np = [ i "node"; i "port" ] in
  [| ("enqueue", queue); ("dequeue", queue);
     ("ecn_mark", pkt @ [ i "occ"; i "threshold" ]);
     ("drop", queue);
     ("trim", pkt @ [ i "cut"; i "occ" ]);
     ("cwnd_update", [ i "flow"; i "cwnd" ]);
     ("loop_switch", [ i "flow"; ("active", Bool); i "window" ]);
     ("rto_fire", [ i "flow"; i "backoff" ]);
     ("retransmit", [ i "flow"; i "seq"; c "loop" ]);
     ("flow_start", [ i "flow"; i "size" ]);
     ("flow_done", [ i "flow"; i "size"; i "fct" ]);
     ("probe_queue", np @ [ i "occ"; i "lp_occ" ]);
     ("probe_link", np @ [ i "tx_bytes"; i "util_ppm" ]);
     ("probe_dt", np @ [ i "hp"; i "lp" ]);
     ("link_down", np); ("link_up", np);
     ("link_degrade", np @ [ i "rate_ppm"; i "extra_delay" ]);
     ("fault_drop",
      np @ [ i "flow"; i "seq"; c "kind"; i "size"; c "reason" ]) |]

(* Derived per tag: the "ev" value with its closing quote, and each
   field's JSONL key prefix (comma, quoted name, colon) and kind. *)
let ev_names = Array.map (fun (name, _) -> name ^ "\"") schema

let fields =
  let key (k, kind) = (",\"" ^ k ^ "\":", kind) in
  Array.map (fun (_, fs) -> Array.of_list (List.map key fs)) schema

(* Scratch fields of the event being encoded or decoded: [load] fills
   it from an event, the readers fill it from the wire and [build] turns
   it back into an event. Chars and bools are stored as their codes.
   Being module-global is what keeps the binary writer allocation-free. *)
let f = Array.make 8 0

let[@inline] l2 tag a b = f.(0) <- a; f.(1) <- b; tag
let[@inline] l3 tag a b c = f.(2) <- c; l2 tag a b
let[@inline] l4 tag a b c d = f.(3) <- d; l3 tag a b c
let[@inline] l7 tag a b c d e g h =
  f.(4) <- e; f.(5) <- g; f.(6) <- h; l4 tag a b c d
let[@inline] l8 tag a b c d e g h k = f.(7) <- k; l7 tag a b c d e g h

let load = function
  | Enqueue { node; port; prio; flow; seq; kind; size; occ } ->
    l8 0 node port prio flow seq (Char.code kind) size occ
  | Dequeue { node; port; prio; flow; seq; kind; size; occ } ->
    l8 1 node port prio flow seq (Char.code kind) size occ
  | Ecn_mark { node; port; prio; flow; seq; occ; threshold } ->
    l7 2 node port prio flow seq occ threshold
  | Drop { node; port; prio; flow; seq; kind; size; occ } ->
    l8 3 node port prio flow seq (Char.code kind) size occ
  | Trim { node; port; prio; flow; seq; cut; occ } ->
    l7 4 node port prio flow seq cut occ
  | Cwnd_update { flow; cwnd } -> l2 5 flow cwnd
  | Loop_switch { flow; active; window } ->
    l3 6 flow (Bool.to_int active) window
  | Rto_fire { flow; backoff } -> l2 7 flow backoff
  | Retransmit { flow; seq; loop } -> l3 8 flow seq (Char.code loop)
  | Flow_start { flow; size } -> l2 9 flow size
  | Flow_done { flow; size; fct } -> l3 10 flow size fct
  | Probe_queue { node; port; occ; lp_occ } -> l4 11 node port occ lp_occ
  | Probe_link { node; port; tx_bytes; util_ppm } ->
    l4 12 node port tx_bytes util_ppm
  | Probe_dt { node; port; hp; lp } -> l4 13 node port hp lp
  | Link_down { node; port } -> l2 14 node port
  | Link_up { node; port } -> l2 15 node port
  | Link_degrade { node; port; rate_ppm; extra_delay } ->
    l4 16 node port rate_ppm extra_delay
  | Fault_drop { node; port; flow; seq; kind; size; reason } ->
    l7 17 node port flow seq (Char.code kind) size (Char.code reason)

let[@inline] i k = f.(k)
let[@inline] c k = Char.chr f.(k)

let build = function
  | 0 -> Enqueue { node = i 0; port = i 1; prio = i 2; flow = i 3;
                   seq = i 4; kind = c 5; size = i 6; occ = i 7 }
  | 1 -> Dequeue { node = i 0; port = i 1; prio = i 2; flow = i 3;
                   seq = i 4; kind = c 5; size = i 6; occ = i 7 }
  | 2 -> Ecn_mark { node = i 0; port = i 1; prio = i 2; flow = i 3;
                    seq = i 4; occ = i 5; threshold = i 6 }
  | 3 -> Drop { node = i 0; port = i 1; prio = i 2; flow = i 3;
                seq = i 4; kind = c 5; size = i 6; occ = i 7 }
  | 4 -> Trim { node = i 0; port = i 1; prio = i 2; flow = i 3;
                seq = i 4; cut = i 5; occ = i 6 }
  | 5 -> Cwnd_update { flow = i 0; cwnd = i 1 }
  | 6 -> Loop_switch { flow = i 0; active = i 1 <> 0; window = i 2 }
  | 7 -> Rto_fire { flow = i 0; backoff = i 1 }
  | 8 -> Retransmit { flow = i 0; seq = i 1; loop = c 2 }
  | 9 -> Flow_start { flow = i 0; size = i 1 }
  | 10 -> Flow_done { flow = i 0; size = i 1; fct = i 2 }
  | 11 -> Probe_queue { node = i 0; port = i 1; occ = i 2; lp_occ = i 3 }
  | 12 -> Probe_link { node = i 0; port = i 1; tx_bytes = i 2; util_ppm = i 3 }
  | 13 -> Probe_dt { node = i 0; port = i 1; hp = i 2; lp = i 3 }
  | 14 -> Link_down { node = i 0; port = i 1 }
  | 15 -> Link_up { node = i 0; port = i 1 }
  | 16 -> Link_degrade { node = i 0; port = i 1; rate_ppm = i 2;
                         extra_delay = i 3 }
  | _ -> Fault_drop { node = i 0; port = i 1; flow = i 2; seq = i 3;
                      kind = c 4; size = i 5; reason = c 6 }

let tag ev = fst schema.(load ev)

(* --- writer -------------------------------------------------------- *)

let to_json_line ~ts ev =
  let tag = load ev in
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"t\":";
  Buffer.add_string b (string_of_int ts);
  Buffer.add_string b ",\"ev\":\"";
  Buffer.add_string b ev_names.(tag);
  Array.iteri
    (fun k (key, kind) ->
       Buffer.add_string b key;
       match kind with
       | Int -> Buffer.add_string b (string_of_int f.(k))
       | Char -> Buffer.add_char b '"'; Buffer.add_char b (c k);
         Buffer.add_char b '"'
       | Bool -> Buffer.add_string b (if f.(k) <> 0 then "true" else "false"))
    fields.(tag);
  Buffer.add_char b '}';
  Buffer.contents b

(* --- binary encoding ----------------------------------------------

   One tag byte, then the timestamp and every field in schema order:
   ints as zigzag varints, chars and bools as single bytes. No length:
   the tag's schema row says how many fields follow. *)

let bin_magic = "PPTB\001"

(* Encoding goes through a module-global scratch buffer written with
   unsafe byte stores, then lands in the caller's [Buffer] as a single
   [add_subbytes] — one bounds check per event instead of one per byte.
   An event is at most 1 tag + 9 varints of <= 10 bytes each, far under
   the scratch size, which is what makes the unsafe stores safe. *)
let scratch = Bytes.create 256
let spos = ref 0

let[@inline] put_char c =
  Bytes.unsafe_set scratch !spos c;
  incr spos

(* Zigzag maps the (63-bit) int onto an unsigned code so small
   magnitudes of either sign stay short; the code is then emitted in
   7-bit groups, low first, high bit = continuation. [lsr] treats the
   code as unsigned throughout, so the full int range round-trips. *)
let[@inline] put_varint n =
  let z = ref ((n lsl 1) lxor (n asr 62)) in
  while !z land lnot 0x7f <> 0 do
    put_char (Char.unsafe_chr ((!z land 0x7f) lor 0x80));
    z := !z lsr 7
  done;
  put_char (Char.unsafe_chr !z)

let add_binary b ~ts ev =
  let tag = load ev in
  spos := 0;
  put_char (Char.unsafe_chr tag);
  put_varint ts;
  let fs = fields.(tag) in
  for k = 0 to Array.length fs - 1 do
    if snd fs.(k) = Int then put_varint f.(k)
    else put_char (Char.unsafe_chr f.(k))
  done;
  Buffer.add_subbytes b scratch 0 !spos

let truncated () = failwith "Event.of_binary: truncated stream"

let[@inline] read_byte s pos =
  if !pos >= String.length s then truncated ();
  incr pos;
  Char.code s.[!pos - 1]

let[@inline] read_varint s pos =
  let z = ref 0 and shift = ref 0 and byte = ref 0x80 in
  while !byte >= 0x80 do
    if !shift >= 63 then truncated ();
    byte := read_byte s pos;
    z := !z lor ((!byte land 0x7f) lsl !shift);
    shift := !shift + 7
  done;
  (!z lsr 1) lxor (- (!z land 1))

let of_binary s pos =
  if !pos >= String.length s then None
  else
    let tag = read_byte s pos in
    if tag >= Array.length schema then
      failwith (Printf.sprintf "Event.of_binary: bad tag %d" tag);
    let ts = read_varint s pos in
    let fs = fields.(tag) in
    for k = 0 to Array.length fs - 1 do
      f.(k) <- (if snd fs.(k) = Int then read_varint s pos
                else read_byte s pos)
    done;
    Some (ts, build tag)

(* --- parser --------------------------------------------------------

   The parser reads the canonical form left to right: [skip] steps over
   a literal if it comes next, [expect] insists on it. Anything
   [to_json_line] cannot produce (reordered or extra keys, whitespace,
   trailing bytes, non-canonical numbers) raises [Exit]. *)

let skip line pos lit =
  let n = String.length lit and p = !pos in
  let rec eq k = k = n || (line.[p + k] = lit.[k] && eq (k + 1)) in
  let ok = p + n <= String.length line && eq 0 in
  if ok then pos := p + n;
  ok

let expect line pos lit = if not (skip line pos lit) then raise Exit

(* An int exactly as [string_of_int] renders it: no '+', no leading
   zeros, no "-0", in range. *)
let read_int line pos =
  let first = !pos in
  ignore (skip line pos "-");
  while !pos < String.length line && '0' <= line.[!pos]
        && line.[!pos] <= '9' do incr pos done;
  let s = String.sub line first (!pos - first) in
  match int_of_string_opt s with
  | Some n when String.equal s (string_of_int n) -> n
  | _ -> raise Exit

let read_field line pos = function
  | Int -> read_int line pos
  | Bool -> if skip line pos "true" then 1 else (expect line pos "false"; 0)
  | Char ->
    expect line pos "\"";
    incr pos;
    expect line pos "\"";
    Char.code line.[!pos - 2]

let of_json_line line =
  let pos = ref 0 in
  try
    expect line pos "{\"t\":";
    let ts = read_int line pos in
    expect line pos ",\"ev\":\"";
    let rec find tag =
      if tag = Array.length schema then raise Exit
      else if skip line pos ev_names.(tag) then tag
      else find (tag + 1)
    in
    let tag = find 0 in
    Array.iteri
      (fun k (key, kind) ->
         expect line pos key;
         f.(k) <- read_field line pos kind)
      fields.(tag);
    expect line pos "}";
    if !pos = String.length line then Some (ts, build tag) else None
  with Exit -> None

let pp ppf ev = Fmt.string ppf (to_json_line ~ts:0 ev)
