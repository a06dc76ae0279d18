(* The retained-ring replay core behind the HTTP front door's SSE streams
   and long-polls.

   - every published entry gets the next global sequence number ([gseq],
     1-based) — the SSE event id;
   - the last [retain] entries are kept in a ring;
   - a client that reconnects with cursor C is replayed every retained
     entry with gseq > C, in order.  When C+1 has already been evicted, or
     C lies beyond the last gseq (a cursor from before a restart: a fresh
     ring numbers from 1 again), the caller is told the oldest retained
     gseq first so it can emit a gap marker and replay from there.

   Not thread-safe by itself: the owner serializes access under its own
   lock (the HTTP server's connection lock). *)

type 'a t = {
  ring : (int * 'a) option array;  (* (gseq, entry) slots *)
  cap : int;
  mutable gseq : int;  (* last published global sequence number *)
  mutable published : int;  (* lifetime publish count *)
}

let create ?(retain = 4096) () =
  let cap = max 1 retain in
  { ring = Array.make cap None; cap; gseq = 0; published = 0 }

let last_gseq t = t.gseq
let published t = t.published

(* Retain [v] under the next gseq and return it. *)
let publish t v =
  t.gseq <- t.gseq + 1;
  t.published <- t.published + 1;
  t.ring.((t.gseq - 1) mod t.cap) <- Some (t.gseq, v);
  t.gseq

(* Oldest gseq still guaranteed retained; 1 while nothing has been
   evicted yet. *)
let oldest_retained t = max 1 (t.gseq - min t.gseq t.cap + 1)

(* [Some oldest] when [cursor] is further behind than retention reaches or
   ahead of everything published: the client must be told about the gap,
   then replayed from [oldest]. *)
let gap_before t ~cursor =
  let oldest = oldest_retained t in
  if t.gseq > 0 && (cursor + 1 < oldest || cursor > t.gseq) then Some oldest
  else None

(* Visit every retained entry above [cursor], in gseq order. *)
let iter_from t ~cursor f =
  for g = max (cursor + 1) (oldest_retained t) to t.gseq do
    match t.ring.((g - 1) mod t.cap) with
    | Some (g', v) when g' = g -> f g v
    | _ -> ()
  done
