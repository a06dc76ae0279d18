(* Bounded per-subscriber delivery queue.

   A queue holds at most [capacity] pending notifications between flushes
   (the "flush window").  Three overflow policies match what a real fan-out
   tier needs: [Drop_oldest] (a lagging dashboard wants the freshest state),
   [Drop_newest] (an auditor wants the contiguous prefix), and [Disconnect]
   (a subscriber that cannot keep up is kicked and must re-sync, e.g. by
   reconnecting its SSE stream with [Last-Event-ID]).

   Coalescing is key-based and scoped to the flush window: when a new item
   carries the same key as one still pending, the pending item's payload is
   replaced *in place* — it keeps its queue position, so per-key delivery
   order is the first-arrival order and cross-key order is FIFO.  The
   superseded payload counts as [coalesced], never as delivered.

   Storage is a ring indexed by monotone sequence numbers, so there are no
   holes: [pending = next_seq - head_seq], eviction advances [head_seq],
   coalescing rewrites a slot.  The accounting invariant tests rely on:

     enqueued = delivered + dropped + coalesced + pending

   A queue is safe for cross-domain producer/consumer use: every operation
   that touches the ring, the coalescing index, or a pair of counters runs
   under the queue's mutex.  The per-queue lock is uncontended in the
   sequential engine and held only for the few stores of one push/flush,
   so the sequential cost is one lock/unlock pair per operation. *)

type overflow = Drop_oldest | Drop_newest | Disconnect

let overflow_to_string = function
  | Drop_oldest -> "drop-oldest"
  | Drop_newest -> "drop-newest"
  | Disconnect -> "disconnect"

let overflow_of_string = function
  | "drop-oldest" -> Some Drop_oldest
  | "drop-newest" -> Some Drop_newest
  | "disconnect" -> Some Disconnect
  | _ -> None

type push_result =
  | Enqueued
  | Coalesced  (* replaced a pending same-key item in place *)
  | Dropped  (* lost to the overflow policy *)
  | Disconnected  (* queue is (now) disconnected; item lost *)

type 'a slot = {
  s_key : string;
  mutable s_payload : 'a;
}

type 'a t = {
  capacity : int;
  overflow : overflow;
  coalesce : bool;
  lock : Mutex.t;  (* guards everything mutable below *)
  buf : 'a slot option array;  (* slot for seq s lives at s mod capacity *)
  index : (string, int) Hashtbl.t;  (* key -> pending seq (coalesce target) *)
  mutable head_seq : int;  (* seq of the oldest pending item *)
  mutable next_seq : int;
  mutable enqueued : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable coalesced : int;
  mutable disconnected : bool;
}

let create ?(capacity = 1024) ?(overflow = Drop_oldest) ?(coalesce = false) () =
  let capacity = max 1 capacity in
  { capacity;
    overflow;
    coalesce;
    lock = Mutex.create ();
    buf = Array.make capacity None;
    index = Hashtbl.create 64;
    head_seq = 0;
    next_seq = 0;
    enqueued = 0;
    delivered = 0;
    dropped = 0;
    coalesced = 0;
    disconnected = false;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = t.capacity
let overflow t = t.overflow
let coalescing t = t.coalesce
let depth_unlocked t = t.next_seq - t.head_seq
let depth t = with_lock t (fun () -> depth_unlocked t)
let enqueued t = with_lock t (fun () -> t.enqueued)
let delivered t = with_lock t (fun () -> t.delivered)
let dropped t = with_lock t (fun () -> t.dropped)
let coalesced t = with_lock t (fun () -> t.coalesced)
let disconnected t = with_lock t (fun () -> t.disconnected)

(* Re-admit a subscriber kicked by [Disconnect] (it re-synced out of band). *)
let reconnect t = with_lock t (fun () -> t.disconnected <- false)

let evict_head t =
  (match t.buf.(t.head_seq mod t.capacity) with
  | Some s ->
    (if t.coalesce then
       match Hashtbl.find_opt t.index s.s_key with
       | Some seq when seq = t.head_seq -> Hashtbl.remove t.index s.s_key
       | _ -> ());
    t.buf.(t.head_seq mod t.capacity) <- None
  | None -> ());
  t.head_seq <- t.head_seq + 1;
  t.dropped <- t.dropped + 1

(* the key index exists only to coalesce: skip its upkeep otherwise *)
let append t key v =
  t.buf.(t.next_seq mod t.capacity) <- Some { s_key = key; s_payload = v };
  if t.coalesce then Hashtbl.replace t.index key t.next_seq;
  t.next_seq <- t.next_seq + 1

let push t ~key v =
  with_lock t @@ fun () ->
  t.enqueued <- t.enqueued + 1;
  if t.disconnected then begin
    t.dropped <- t.dropped + 1;
    Disconnected
  end
  else
    match
      if t.coalesce then Hashtbl.find_opt t.index key else None
    with
    | Some seq when seq >= t.head_seq -> (
      match t.buf.(seq mod t.capacity) with
      | Some s ->
        s.s_payload <- v;
        t.coalesced <- t.coalesced + 1;
        Coalesced
      | None ->
        (* stale index entry (should not happen: eviction and flush both
           clean the index); treat as a fresh enqueue *)
        Hashtbl.remove t.index key;
        append t key v;
        Enqueued)
    | _ ->
      if depth_unlocked t >= t.capacity then
        match t.overflow with
        | Drop_newest ->
          t.dropped <- t.dropped + 1;
          Dropped
        | Drop_oldest ->
          evict_head t;
          append t key v;
          Enqueued
        | Disconnect ->
          (* the subscriber is gone: everything pending is lost with it *)
          while depth_unlocked t > 0 do
            evict_head t
          done;
          Hashtbl.reset t.index;
          t.dropped <- t.dropped + 1;
          t.disconnected <- true;
          Disconnected
      else begin
        append t key v;
        Enqueued
      end

(* Drain the pending window in order; the drained items count as delivered
   (the caller hands them to a sink). *)
let flush t =
  with_lock t @@ fun () ->
  let n = depth_unlocked t in
  let out = ref [] in
  (* clear only the occupied window, not the whole ring: flush runs once
     per statement batch and capacity may be far larger than depth *)
  for i = n - 1 downto 0 do
    let slot = (t.head_seq + i) mod t.capacity in
    (match t.buf.(slot) with
    | Some s -> out := s.s_payload :: !out
    | None -> ());
    t.buf.(slot) <- None
  done;
  if t.coalesce then Hashtbl.reset t.index;
  t.head_seq <- t.next_seq;
  t.delivered <- t.delivered + n;
  !out

(* The accounting invariant, for tests and assertions; the lock makes the
   snapshot consistent even while producers on other domains keep pushing. *)
let invariant_holds t =
  with_lock t @@ fun () ->
  let d = depth_unlocked t in
  t.enqueued = t.delivered + t.dropped + t.coalesced + d
  && d >= 0
  && d <= t.capacity
