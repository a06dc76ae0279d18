(* sql-feed: the write-and-deliver service path.

   The Table 2 schema and view at 4096 leaves (64 top-level elements of 64
   leaves; see README.md for why not 16k), 1000 subscriptions on 8 watched
   top-level elements in 4 WHERE shapes (4 GROUPED groups), COALESCE off,
   an in-process callback sink, the hub flushed after every statement, the
   WAL attached with the EveryN 64 policy, one domain (README.md says why
   not two).  Each round issues SQL text through [Sql.exec]: 8 point
   UPDATEs over 32 elements (2 of them watched) and 2 leaf INSERT/DELETE
   pairs (one under a watched element).  The traced run then drives a
   second instance at two domains (the firing pool plus the hub's sink
   writer domain) for a third of the window, to measure the pool. *)

open Harness
module W = Workloadlib.Workload
module Runtime = Trigview.Runtime
module Value = Relkit.Value
module Sql = Relkit.Sql

let params = { W.quick_defaults with W.leaf_tuples = 4096; num_triggers = 0; num_satisfied = 0 }
let setup_gap_s = 0.3
let setups = 16

(* 2 s tail blocks at 30 s: short enough that a burst of interference
   from the host lifts a minority of them (README.md, "Block length"), long
   enough to keep 10 or more statements beyond each block's write p99 *)
let tail_blocks = 15
let subscriptions = 1000
let watched = 8
let elements = 32
let shapes = 4
let updates_per_round = 8
let watched_updates_per_round = 2
let statements_per_round = updates_per_round + 4
let policy = Durability.Wal.EveryN 64

type inst = {
  built : W.built;
  mgr : Runtime.t;
  hub : Subscribe.t;
  dir : string;
  build_s : float;
  arm_s : float;
  checkpoint_s : float;
}

(* state shared with the callback sink *)
let write_t0 = ref 0L
let delivered = ref 0
let first_delivery = ref 0L
let sampling = ref false
let notify = Samples.create ()
let writes = Samples.create ()
let first = Samples.create ()

let on_delivery _ =
  let t = now () in
  incr delivered;
  if !first_delivery = 0L then first_delivery := t;
  if !sampling then Samples.add notify (ms_between !write_t0 t)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let subscription_ddl built ~elems i =
  let conjuncts =
    String.concat ""
      (List.init ((i / watched) mod shapes) (fun _ ->
           Printf.sprintf " and count(NEW_NODE/%s) >= 0" (W.elem_name 2)))
  in
  Printf.sprintf
    "sf%d AFTER UPDATE ON view('doc')/%s WHERE NEW_NODE/@name = '%s'%s QUEUE 64 OVERFLOW \
     drop-oldest COALESCE off"
    i (W.elem_name 1)
    built.W.top_names.(elems.(i mod watched))
    conjuncts

let setup ~elems ~wal_root ~domains i =
  let dir = Filename.concat wal_root (Printf.sprintf "setup%d" i) in
  rm_rf dir;
  let t0 = now () in
  let built = W.build params in
  let t1 = now () in
  let tuning = { Runtime.default_tuning with Runtime.domains } in
  let mgr = Runtime.create ~strategy:Runtime.Grouped ~tuning built.W.db in
  Runtime.define_view mgr ~name:"doc" built.W.view_text;
  let hub = Subscribe.attach mgr in
  Subscribe.add_callback hub on_delivery;
  (* as the CLI's --domains sets it up: past one domain the sink runs on
     the hub's writer domain *)
  if domains > 1 then Subscribe.start_writer hub;
  let t2 = now () in
  for i = 0 to subscriptions - 1 do
    Subscribe.subscribe hub (subscription_ddl built ~elems i)
  done;
  let t3 = now () in
  Runtime.attach_durability ~policy mgr ~data_dir:dir;
  let t4 = now () in
  ( { built; mgr; hub; dir; build_s = s_between t0 t1; arm_s = s_between t2 t3;
      checkpoint_s = s_between t3 t4 },
    s_between t0 t4 )

let dispose inst =
  Subscribe.stop_writer inst.hub;
  Runtime.detach_durability inst.mgr;
  rm_rf inst.dir

let queues inst = List.map (fun s -> s.Subscribe.sb_queue) (Subscribe.subscriptions inst.hub)
let queue_sum inst f = List.fold_left (fun acc q -> acc + f q) 0 (queues inst)

type session = {
  round : unit -> unit;  (* one round of statements, each checked *)
  finish : unit -> unit;  (* the exact-count checks over the whole session *)
  statements : int ref;
}

(* Drives [inst] with rounds drawn from [rng]; samples go to the shared
   buffers while [sampling] is set. *)
let session inst ~rng ~elems =
  let db = inst.built.W.db in
  let leaf_table = W.table_name params.W.depth in
  let table = Relkit.Database.get_table db leaf_table in
  let parent_slot = Relkit.Schema.col_index (Relkit.Table.schema table) "parent" in
  let leaf_rows0 = Relkit.Table.row_count table in
  let subs_per_element = subscriptions / watched in
  let ledger = Ledger.create table in
  let n_stmts = ref 0 and want_delivered = ref 0 and inserted = ref 0 in
  let delivered_start = !delivered in
  let enq_start = queue_sum inst Subscribe.Squeue.enqueued
  and dlv_start = queue_sum inst Subscribe.Squeue.delivered in
  let c_start = Counters.snapshot inst.mgr in
  let stmt text ~watched:w =
    let d0 = !delivered in
    first_delivery := 0L;
    incr Spans.current_op;
    let t0 = now () in
    write_t0 := t0;
    let affected =
      match Spans.around "sql.exec" (fun () -> Sql.exec db text) with
      | Sql.Affected n -> n
      | Sql.Rows _ | Sql.Done -> -1
      | exception e ->
        check false "statement %d (%s): %s" (!n_stmts + 1) text (Printexc.to_string e);
        -1
    in
    let t1 = now () in
    Spans.around "subscribe.flush" (fun () ->
        ignore (Subscribe.flush inst.hub);
        Subscribe.drain_writer inst.hub);
    if !sampling then begin
      Samples.add writes (ms_between t0 t1);
      if !first_delivery <> 0L then Samples.add first (ms_between t0 !first_delivery)
    end;
    incr n_stmts;
    let want = if w then subs_per_element else 0 in
    want_delivered := !want_delivered + want;
    check (affected = 1) "statement %d (%s): %d rows affected" !n_stmts text affected;
    check (!delivered - d0 = want) "statement %d: %d deliveries, expected %d" !n_stmts
      (!delivered - d0) want
  in
  let random_leaf e =
    let leaves = inst.built.W.leaf_ids_of_top.(e) in
    leaves.(Random.State.int rng (Array.length leaves))
  in
  let update e ~watched =
    let leaf = random_leaf e in
    ignore (Ledger.bump ledger leaf);
    stmt ~watched
      (Printf.sprintf "UPDATE %s SET price = price + 1.0 WHERE id = '%s'" leaf_table leaf)
  in
  let pair e ~watched =
    let parent =
      match Relkit.Table.find_pk table [ Value.String (random_leaf e) ] with
      | Some row -> Value.to_string row.(parent_slot)
      | None -> "?"
    in
    incr inserted;
    let id = Printf.sprintf "bx%d" !inserted in
    stmt ~watched
      (Printf.sprintf "INSERT INTO %s VALUES ('%s', '%s', 100.0)" leaf_table id parent);
    stmt ~watched (Printf.sprintf "DELETE FROM %s WHERE id = '%s'" leaf_table id)
  in
  let unwatched () = elems.(watched + Random.State.int rng (elements - watched)) in
  let round () =
    (* 8 updates (2 watched) and 2 pairs (1 watched), in seeded order *)
    let items =
      Array.init (updates_per_round + 2) (fun k ->
          if k < updates_per_round then
            if k < watched_updates_per_round then `Update (elems.(Random.State.int rng watched), true)
            else `Update (unwatched (), false)
          else if k = updates_per_round then `Pair (elems.(Random.State.int rng watched), true)
          else `Pair (unwatched (), false))
    in
    for i = Array.length items - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = items.(i) in
      items.(i) <- items.(j);
      items.(j) <- x
    done;
    Array.iter
      (function
        | `Update (e, w) -> update e ~watched:w
        | `Pair (e, w) -> pair e ~watched:w)
      items
  in
  let finish () =
    let got = !delivered - delivered_start in
    check (got = !want_delivered) "deliveries %d, expected %d" got !want_delivered;
    let enq = queue_sum inst Subscribe.Squeue.enqueued - enq_start
    and dlv = queue_sum inst Subscribe.Squeue.delivered - dlv_start in
    check (enq = got && dlv = got) "Squeue enqueued %d delivered %d, sink saw %d" enq dlv got;
    List.iter
      (fun q ->
        check
          (Subscribe.Squeue.enqueued q
           = Subscribe.Squeue.delivered q + Subscribe.Squeue.dropped q
             + Subscribe.Squeue.coalesced q + Subscribe.Squeue.depth q)
          "Squeue conservation broken")
      (queues inst);
    let appended =
      int_of_float ((Counters.snapshot inst.mgr).Counters.wal_appends -. c_start.Counters.wal_appends)
    in
    check (appended = !n_stmts) "WAL records appended %d, statements %d" appended !n_stmts;
    Ledger.check_final ledger;
    check (Relkit.Table.row_count table = leaf_rows0) "leaf table has %d rows, expected %d"
      (Relkit.Table.row_count table) leaf_rows0
  in
  { round; finish; statements = n_stmts }

(* The traced run's pool block: a fresh instance at two domains, driven
   untraced for [seconds]; returns [runtime.fire_ms] there and the
   statements issued. *)
let pool_block ~elems ~wal_root ~rng ~seconds =
  let inst, _ = setup ~elems ~wal_root ~domains:2 2000 in
  let s = session inst ~rng ~elems in
  for _ = 1 to 4 do
    s.round ()
  done;
  let c0 = Counters.snapshot inst.mgr in
  let n0 = !(s.statements) in
  ignore (run_window ~tail_blocks:1 ~seconds ~trace:false s.round);
  let c1 = Counters.snapshot inst.mgr in
  s.finish ();
  dispose inst;
  (Counters.ms_per (c1.Counters.fire_ns -. c0.Counters.fire_ns) (!(s.statements) - n0),
   !(s.statements))

let run ~wal_root ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let n_top = max 1 (params.W.leaf_tuples / params.W.fanout) in
  (* 32 distinct elements; the first 8 are watched *)
  let elems =
    let a = Array.init n_top Fun.id in
    for i = n_top - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.sub a 0 elements
  in
  let phases = ref [] in
  let build i =
    let inst, s = setup ~elems ~wal_root ~domains:1 i in
    (* set-up 0 is the untimed warm-up *)
    if i > 0 then phases := (inst.build_s, inst.arm_s, inst.checkpoint_s) :: !phases;
    (inst, s)
  in
  let inst, setup_times = repeat_setup ~warmup:1 ~gap_s:setup_gap_s setups ~dispose build in
  let s = session inst ~rng ~elems in
  for _ = 1 to 4 do
    s.round ()
  done;
  let shed () =
    queue_sum inst Subscribe.Squeue.dropped + queue_sum inst Subscribe.Squeue.coalesced
  in
  let c0 = Counters.snapshot inst.mgr in
  let enq0 = queue_sum inst Subscribe.Squeue.enqueued
  and dlv0 = queue_sum inst Subscribe.Squeue.delivered
  and shed0 = shed () in
  sampling := true;
  let w = run_window ~tail_blocks ~seconds ~trace s.round in
  sampling := false;
  let c1 = Counters.snapshot inst.mgr in
  let enq = queue_sum inst Subscribe.Squeue.enqueued - enq0
  and dlv = queue_sum inst Subscribe.Squeue.delivered - dlv0
  and shed = shed () - shed0 in
  s.finish ();
  let statements = !(s.statements) in
  let heap = peak_heap_mb () in
  dispose inst;
  let delta = Counters.diff c1 c0 in
  let pool_fire_ms, pool_stmts =
    if trace then pool_block ~elems ~wal_root ~rng ~seconds:(seconds /. 3.0) else (0.0, 0)
  in
  let pick f = median (List.map f !phases) in
  let build_s = pick (fun (b, _, _) -> b) in
  let arm_s = pick (fun (_, a, _) -> a) in
  let checkpoint_s = pick (fun (_, _, c) -> c) in
  let ops_per_s = float_of_int (w.rounds * statements_per_round) /. w.elapsed_s in
  let traced_ops_per_s =
    if w.traced_s > 0.0 then float_of_int (w.traced_rounds * statements_per_round) /. w.traced_s
    else 0.0
  in
  let window_stmts = (w.rounds + w.traced_rounds) * statements_per_round in
  let base = Counters.layer_metrics delta ~writes:window_stmts ~ops:window_stmts in
  let traced_stmts = w.traced_rounds * statements_per_round in
  let span_ms name =
    let ms, n = Spans.total name in
    if n = 0 then 0.0 else ms /. float_of_int (max n traced_stmts)
  in
  let exec_ms = span_ms "sql.exec" in
  let layer =
    base
    @ [ m "runtime.first_dispatch_ms" "ms" (Samples.mean first);
        m "pool.fire_ms" "ms" pool_fire_ms;
        m "sql.exec_ms" "ms" exec_ms;
        m "sql.self_ms" "ms"
          (exec_ms -. Counters.find "runtime.fire_ms" base -. Counters.find "wal.append_ms" base);
        m "subscribe.flush_ms" "ms" (span_ms "subscribe.flush");
        m "subscribe.delivered_per_write" "count" (Counters.per (float_of_int dlv) window_stmts);
        m "subscribe.shed_share" "ratio"
          (if enq = 0 then 0.0 else float_of_int shed /. float_of_int enq);
        m "setup.build_s" "s" build_s;
        m "setup.arm_ms_per_trigger" "ms" (arm_s *. 1000.0 /. float_of_int subscriptions);
        m "setup.checkpoint_s" "s" checkpoint_s;
      ]
  in
  { e2e =
      [ m "setup_s" "s" (median setup_times);
        m "ops_per_s" "1/s" ops_per_s;
        m "write_p50_ms" "ms" (Samples.percentile writes 0.50);
        m "write_p99_ms" "ms" (Samples.block_percentile writes 0.99);
        m "notify_p50_ms" "ms" (Samples.percentile notify 0.50);
        m "notify_p99_ms" "ms" (Samples.block_percentile notify 0.99);
        m "peak_heap_mb" "MB" heap;
      ];
    layer;
    extra =
      [ m "writes.samples" "count" (float_of_int (Samples.count writes));
        m "writes.beyond_p99" "count" (float_of_int (Samples.min_beyond writes 0.99));
        m "notify.samples" "count" (float_of_int (Samples.count notify));
        m "notify.beyond_p99" "count" (float_of_int (Samples.min_beyond notify 0.99));
        m "deliveries" "count" (float_of_int dlv);
        m "wal.records" "count" delta.Counters.wal_appends;
        m "traced_ops_per_s" "1/s" traced_ops_per_s;
      ];
    attempted = statements + pool_stmts;
    info =
      [ ("params",
          Printf.sprintf "depth 3, %d leaves, fanout 64, %d subscriptions on %d elements, %d shapes"
            params.W.leaf_tuples subscriptions watched shapes);
        ("strategy",
          if trace then "GROUPED, 1 domain; pool block at 2 domains" else "GROUPED, 1 domain");
        ("wal", Printf.sprintf "dir %s, policy EveryN 64" wal_root);
        ("setup_s.each", String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
        ("setup.phases",
          String.concat " "
            (List.rev_map (fun (b, a, c) -> Printf.sprintf "%.4f/%.4f/%.4f" b a c) !phases));
      ];
  }
