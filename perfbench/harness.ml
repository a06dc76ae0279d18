(* Shared machinery of the benchmark workloads: clocks, sample buffers,
   in-memory spans, the closed-loop window, repeated set-up, correctness
   accounting and the result line. *)

let now () = Obs.Trace.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let s_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- growable float sample buffers ---

   Samples live outside the OCaml heap (a Bigarray), so the buffers, which
   grow with the number of operations a run completes, stay out of
   [peak_heap_mb] and out of the GC's work.  The timed window marks block
   ends in every buffer, so a tail figure can be taken per block. *)

module Samples = struct
  open Bigarray

  type t = {
    mutable a : (float, float64_elt, c_layout) Array1.t;
    mutable n : int;
    mutable marks : int list;  (* sample counts at block ends, latest first *)
  }

  let all : t list ref = ref []

  let create () =
    let t = { a = Array1.create float64 c_layout 4096; n = 0; marks = [] } in
    all := t :: !all;
    t

  let mark_all () = List.iter (fun t -> t.marks <- t.n :: t.marks) !all

  let add t x =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create float64 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let count t = t.n

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let s = ref 0.0 in
      for i = 0 to t.n - 1 do
        s := !s +. t.a.{i}
      done;
      !s /. float_of_int t.n
    end

  (* nearest-rank percentile of samples [lo, hi); 0 on an empty range *)
  let percentile_range t lo hi q =
    let n = hi - lo in
    if n <= 0 then 0.0
    else begin
      let s = Array.init n (fun i -> t.a.{lo + i}) in
      Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      s.(max 0 (min (n - 1) (rank - 1)))
    end

  let percentile t q = percentile_range t 0 t.n q

  (* the non-empty [lo, hi) sample ranges between block marks *)
  let blocks t =
    let ends = List.sort_uniq compare (t.n :: t.marks) in
    let rec go lo = function
      | [] -> []
      | hi :: rest -> if hi > lo then (lo, hi) :: go hi rest else go lo rest
    in
    go 0 ends

  (* The median over the window's blocks of each block's q-percentile.  A
     slow stretch of the host lifts the tail of the blocks it covers, not
     the median block, so the figure repeats across runs better than one
     percentile over the whole window. *)
  let block_percentile t q =
    median (List.map (fun (lo, hi) -> percentile_range t lo hi q) (blocks t))

  (* samples strictly beyond the q-quantile in the block that has fewest:
     the support of a per-block tail figure *)
  let min_beyond t q =
    match blocks t with
    | [] -> 0
    | bs ->
      List.fold_left
        (fun acc (lo, hi) ->
          let n = hi - lo in
          min acc (n - int_of_float (Float.ceil (q *. float_of_int n))))
        max_int bs
end

(* --- the benchmark's own spans ---

   One span per call into a layer, recorded only in traced blocks: name,
   start, end and the operation that caused it.  Spans stay in memory and
   are summarised when the run ends. *)

module Spans = struct
  type span = { name : string; t0 : int64; t1 : int64; op : int }

  let on = ref false
  let buf : span list ref = ref []
  let current_op = ref 0

  let record name t0 t1 =
    if !on then buf := { name; t0; t1; op = !current_op } :: !buf

  (* wraps [f] in a span when tracing is on; returns [f]'s result *)
  let around name f =
    if !on then begin
      let t0 = now () in
      let r = f () in
      record name t0 (now ());
      r
    end
    else f ()

  (* total ms and count of the spans called [name] *)
  let total name =
    List.fold_left
      (fun (ms, n) s -> if s.name = name then (ms +. ms_between s.t0 s.t1, n + 1) else (ms, n))
      (0.0, 0) !buf
end

(* --- correctness accounting --- *)

let failures = ref 0
let failure_notes : string list ref = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        if List.length !failure_notes < 20 then failure_notes := msg :: !failure_notes
      end)
    fmt

(* --- expected final leaf prices ---

   Every workload's writes add 1 to a leaf price; the ledger remembers the
   start price of each leaf it sees and checks the table at the end. *)

module Ledger = struct
  module Value = Relkit.Value

  type t = { table : Relkit.Table.t; slot : int; expected : (string, float) Hashtbl.t }

  let create table =
    { table;
      slot = Relkit.Schema.col_index (Relkit.Table.schema table) "price";
      expected = Hashtbl.create 4096;
    }

  let price t leaf =
    match Relkit.Table.find_pk t.table [ Value.String leaf ] with
    | Some row -> Value.to_float row.(t.slot)
    | None -> Float.nan

  (* records one +1 update of [leaf]; returns the price it should now have *)
  let bump t leaf =
    let p =
      (match Hashtbl.find_opt t.expected leaf with Some p -> p | None -> price t leaf) +. 1.0
    in
    Hashtbl.replace t.expected leaf p;
    p

  let check_final t =
    let bad = Hashtbl.fold (fun leaf p n -> if price t leaf = p then n else n + 1) t.expected 0 in
    check (bad = 0) "%d leaves with a wrong final price" bad
end

(* --- host calibration: a fixed register loop --- *)

let spin_ms () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc);
  ms_between t0 (now ())

(* --- memory and GC --- *)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- repeated set-up: median time, last instance kept ---

   All set-ups of a run come before its window, so each finds the heap in
   the same state: set-ups made after the window, on a heap the window had
   grown, ran up to a third faster on http-mixed and split a run's set-up
   times into two groups whose boundary decided the median. *)

(* Runs [build] [warmup + n] times, disposing of every instance but the
   last and collecting the heap before each, and returns the last instance
   with the set-up seconds of all but the first [warmup], which fault the
   heap and code in.  [build i] returns the [i]th instance and its set-up
   seconds.  A busy wait of [gap_s] before each timed set-up spreads short
   set-ups over several of the host's fast and slow stretches, which last
   about a second (README.md, "Noise and steadiness"). *)
let repeat_setup ?(warmup = 0) ?(gap_s = 0.0) n ~dispose build =
  let total = warmup + n in
  let rec go i times =
    if i >= warmup then begin
      let t0 = now () in
      while s_between t0 (now ()) < gap_s do
        ()
      done
    end;
    Gc.compact ();
    let inst, secs = build i in
    let times = if i < warmup then times else secs :: times in
    if i = total - 1 then (inst, List.rev times)
    else begin
      dispose inst;
      go (i + 1) times
    end
  in
  go 0 []

(* --- the closed-loop window --- *)

type window = {
  rounds : int;
  elapsed_s : float;  (* untraced blocks, or the whole window when untraced *)
  traced_rounds : int;
  traced_s : float;
}

(* Runs [round] back to back until [seconds] have elapsed, ending on a
   round boundary, and cuts it into [tail_blocks] equal blocks, marked in
   every sample buffer for {!Samples.block_percentile}.  With [trace], the
   window alternates untraced and traced blocks of [block_s] so both see
   the same host regimes; spans are recorded in the traced blocks only. *)
let run_window ~tail_blocks ~seconds ~trace round =
  Gc.compact ();
  let block_s = 0.5 in
  let mark_s = seconds /. float_of_int tail_blocks in
  (* the last block ends with the window, not at a computed mark *)
  let next_mark = ref (if tail_blocks > 1 then mark_s else infinity) in
  let t_start = now () in
  let untraced = ref 0 and traced = ref 0 in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let traced_block = ref false in
  while s_between t_start (now ()) < seconds do
    Spans.on := !traced_block;
    let b0 = now () in
    let n = ref 0 in
    while
      s_between b0 (now ()) < (if trace then block_s else seconds)
      && s_between t_start (now ()) < seconds
      || !n = 0
    do
      round ();
      incr n;
      if s_between t_start (now ()) >= !next_mark then begin
        Samples.mark_all ();
        next_mark :=
          if !next_mark +. mark_s > seconds -. (mark_s /. 2.0) then infinity
          else !next_mark +. mark_s
      end
    done;
    let dt = s_between b0 (now ()) in
    if !traced_block then begin
      traced := !traced + !n;
      traced_s := !traced_s +. dt
    end
    else begin
      untraced := !untraced + !n;
      untraced_s := !untraced_s +. dt
    end;
    if trace then traced_block := not !traced_block
  done;
  Spans.on := false;
  Samples.mark_all ();
  { rounds = !untraced; elapsed_s = !untraced_s; traced_rounds = !traced; traced_s = !traced_s }

(* --- results --- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  e2e : metric list;  (* what a user of the system sees *)
  layer : metric list;  (* per layer; the span-based ones need --trace 1 *)
  extra : metric list;  (* human report only: class latencies, sample counts *)
  attempted : int;
  info : (string * string) list;
}

(* the shortest decimal that reads back as [v]: every digit kept *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else
    List.find
      (fun s -> float_of_string s = v)
      [ Printf.sprintf "%.15g" v; Printf.sprintf "%.16g" v; Printf.sprintf "%.17g" v ]

let json_line ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_num x.value) x.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed body

let print_metrics title ms =
  Printf.printf "# %s\n" title;
  List.iter (fun x -> Printf.printf "#   %-34s %16.6f %s\n" x.name x.value x.unit_) ms
