(* Discrete-event simulation core: a clock plus a calendar-queue
   scheduler.

   Events are plain [unit -> unit] callbacks. Equal-time events fire in
   scheduling order (every timer carries an insertion sequence number
   used as a tie-break), which keeps runs deterministic: the pop order
   is the total order on [(time, tie)] regardless of which internal
   tier a timer happens to sit in.

   The scheduler is tiered for the timer mix a packet-level simulation
   produces — millions of short-horizon timers (serialization ticks,
   propagation, paced sends, ACK turnarounds) plus a sparse population
   of far-future retransmission timeouts:

   - [cur] is a small binary heap holding the events of the bucket
     currently being drained (all keys < [cur_hi]); it is what [run]
     actually pops, and what same/near-time reschedules during a
     callback fall into.
   - a timing wheel of [n_buckets] unsorted buckets, each covering
     [bucket_width] ns, holds events in [cur_hi, wheel_end); insertion
     is O(1) and allocation-free (beyond the timer itself). The window
     slides one bucket at a time as the clock advances, or hops
     directly to the next event when the wheel runs empty.
   - an overflow binary heap holds everything at or past [wheel_end]
     (RTOs, experiment-horizon probes); events migrate into the wheel
     as the window reaches them.

   Timers can be cancelled; a cancelled timer stays queued but its
   callback is skipped when popped. Cancelled-and-still-queued timers
   are counted, and once they outnumber live ones (past a floor) the
   whole structure is compacted in place so churny retransmit timers
   cannot bloat the queue and get re-sifted forever. *)

let st_pending = 0
let st_fired = 1
let st_cancelled = 2

(* A timer carries its callback argument inline ([fire arg] at pop)
   instead of forcing callers to close over it: packet arrivals are
   scheduled once per transmitted packet, and the inline argument
   turns a closure + timer pair into a single timer allocation. The
   argument's type is existential: each timer pairs a callback with an
   argument of the same type, checked where the timer is built, and
   the constructor with its inline record is still one block. *)
type timer =
  | T : {
      mutable state : int;
      key : Units.time;      (* absolute fire time *)
      tie : int;             (* insertion sequence number *)
      fire : 'a -> unit;
      arg : 'a;
      cancels : int ref;     (* owning sim's cancelled-and-queued counter *)
    } -> timer

let key (T r) = r.key
let tie (T r) = r.tie
let live (T r) = r.state = st_pending

(* Bucket geometry: 256 buckets of 1.024us cover ~262us, comfortably
   past the per-hop timer horizon of a 10-400G fabric while keeping
   buckets small enough that the [cur] heap stays tiny. *)
let log_bucket = 10
let bucket_width = 1 lsl log_bucket
let n_buckets = 256
let bucket_mask = n_buckets - 1
let wheel_span = n_buckets * bucket_width

(* Compact only past this many dead timers, so small runs never pay. *)
let compact_min = 1024

let dummy_timer =
  T { state = st_fired; key = 0; tie = 0; fire = ignore; arg = ();
      cancels = ref 0 }

type t = {
  mutable now : Units.time;
  cur : timer Heap.t;
  overflow : timer Heap.t;
  bkt : timer array array;
  bkt_len : int array;
  mutable wheel_count : int;
  mutable cur_hi : int;     (* every event with key < cur_hi is in [cur] *)
  mutable wheel_end : int;  (* wheel covers [cur_hi, wheel_end) *)
  cancels : int ref;
  mutable compaction_runs : int;
  mutable tie : int;
  mutable running : bool;
  mutable processed : int;
}

let create () =
  { now = 0;
    cur = Heap.create ~dummy:dummy_timer;
    overflow = Heap.create ~dummy:dummy_timer;
    (* bucket storage is allocated on first use: most buckets of a
       short run are never touched, and every [create] would otherwise
       pay for 256 slot arrays up front *)
    bkt = Array.make n_buckets [||];
    bkt_len = Array.make n_buckets 0;
    wheel_count = 0;
    cur_hi = 0;
    wheel_end = wheel_span;
    cancels = ref 0;
    compaction_runs = 0;
    tie = 0; running = false; processed = 0 }

let now t = t.now
let events_processed t = t.processed

let scheduled t =
  Heap.length t.cur + t.wheel_count + Heap.length t.overflow

let pending t = scheduled t - !(t.cancels)
let cancelled_pending t = !(t.cancels)
let compactions t = t.compaction_runs

let bucket_push t tm =
  let b = (key tm lsr log_bucket) land bucket_mask in
  let arr = t.bkt.(b) in
  let len = t.bkt_len.(b) in
  let arr =
    if len < Array.length arr then arr
    else begin
      let bigger = Array.make (max 8 (2 * len)) dummy_timer in
      Array.blit arr 0 bigger 0 len;
      t.bkt.(b) <- bigger;
      bigger
    end
  in
  arr.(len) <- tm;
  t.bkt_len.(b) <- len + 1;
  t.wheel_count <- t.wheel_count + 1

let insert t tm =
  let k = key tm in
  if k < t.cur_hi then Heap.push t.cur ~key:k ~tie:(tie tm) tm
  else if k < t.wheel_end then bucket_push t tm
  else Heap.push t.overflow ~key:k ~tie:(tie tm) tm

(* Drop every cancelled timer still queued. Survivors keep their
   (key, tie) ordering, so pop order is unaffected. *)
let compact t =
  Heap.filter_in_place t.cur ~f:live;
  Heap.filter_in_place t.overflow ~f:live;
  for b = 0 to n_buckets - 1 do
    let arr = t.bkt.(b) and len = t.bkt_len.(b) in
    let j = ref 0 in
    for i = 0 to len - 1 do
      if live arr.(i) then begin arr.(!j) <- arr.(i); incr j end
    done;
    for i = !j to len - 1 do arr.(i) <- dummy_timer done;
    t.wheel_count <- t.wheel_count - (len - !j);
    t.bkt_len.(b) <- !j
  done;
  t.cancels := 0;
  t.compaction_runs <- t.compaction_runs + 1

let schedule1_at : 'a. t -> Units.time -> ('a -> unit) -> 'a -> timer =
  fun t at fire arg ->
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: %d is in the past (now=%d)" at t.now);
  if !(t.cancels) >= compact_min && 2 * !(t.cancels) > scheduled t then
    compact t;
  t.tie <- t.tie + 1;
  let tm =
    T { state = st_pending; key = at; tie = t.tie; fire; arg;
        cancels = t.cancels }
  in
  insert t tm;
  tm

(* A [unit -> unit] callback is stored with the unit value as its
   argument. *)
let schedule_at t at (fire : unit -> unit) = schedule1_at t at fire ()

let schedule t ~after fire =
  assert (after >= 0);
  schedule_at t (t.now + after) fire

let schedule1 t ~after fire arg =
  assert (after >= 0);
  schedule1_at t (t.now + after) fire arg

let cancel (T r) =
  if r.state = st_pending then begin
    r.state <- st_cancelled;
    incr r.cancels
  end

let stop t = t.running <- false

(* Pull overflow events that now fall inside the (just extended)
   wheel window. *)
let rec migrate_overflow t =
  if (not (Heap.is_empty t.overflow))
  && Heap.top_key t.overflow < t.wheel_end then begin
    bucket_push t (Heap.pop_exn t.overflow);
    migrate_overflow t
  end

(* Make [cur] hold the globally minimal event (if any exist): slide the
   wheel window bucket by bucket, dumping the first nonempty bucket
   into [cur]; if the wheel is empty, hop straight to the earliest
   overflow event's window. *)
let rec refill t =
  if Heap.is_empty t.cur then begin
    if t.wheel_count > 0 then begin
      let b = (t.cur_hi lsr log_bucket) land bucket_mask in
      let len = t.bkt_len.(b) in
      if len > 0 then begin
        let arr = t.bkt.(b) in
        for i = 0 to len - 1 do
          let tm = arr.(i) in
          Heap.push t.cur ~key:(key tm) ~tie:(tie tm) tm;
          arr.(i) <- dummy_timer
        done;
        t.bkt_len.(b) <- 0;
        t.wheel_count <- t.wheel_count - len
      end;
      (* bucket [b] now represents [wheel_end, wheel_end + width) *)
      t.cur_hi <- t.cur_hi + bucket_width;
      t.wheel_end <- t.wheel_end + bucket_width;
      if not (Heap.is_empty t.overflow) then migrate_overflow t;
      refill t
    end
    else begin
      match Heap.min_key t.overflow with
      | None -> ()
      | Some k ->
        t.cur_hi <- (k lsr log_bucket) lsl log_bucket;
        t.wheel_end <- t.cur_hi + wheel_span;
        migrate_overflow t;
        refill t
    end
  end

let run ?until ?(max_events = max_int) t =
  t.running <- true;
  let horizon = match until with None -> max_int | Some u -> u in
  let rec loop () =
    if t.running && t.processed < max_events then begin
      if Heap.is_empty t.cur then refill t;
      if not (Heap.is_empty t.cur) then begin
        let at = Heap.top_key t.cur in
        if at > horizon then
          (* Leave the clock at the horizon; the event stays queued for
             a later [run] call. *)
          t.now <- horizon
        else begin
          (match Heap.pop_exn t.cur with
           | T r ->
             if r.state = st_pending then begin
               t.now <- at;
               r.state <- st_fired;
               t.processed <- t.processed + 1;
               r.fire r.arg
             end else
               (* a dead timer leaves the queue *)
               decr t.cancels);
          loop ()
        end
      end
    end
  in
  loop ();
  t.running <- false
