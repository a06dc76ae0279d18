(* paper-table2: the paper's own experiment (§6, Table 2 bold defaults).

   Depth 3, 128k leaf tuples, fanout 64, 10,000 XML triggers of which 20
   are satisfied, strategy GROUPED at one domain; no WAL, subscriptions,
   SQL text or HTTP.  Each round issues four single-row leaf price updates
   through [Database.update_pk]: one under the target element (firing the
   20 satisfied triggers) and three under uniformly random other
   elements. *)

open Harness
module W = Workloadlib.Workload
module Runtime = Trigview.Runtime

let params = W.paper_defaults
let writes_per_round = 4

let setups = 3

(* 1.5 s tail blocks at 30 s (README.md, "Block length") *)
let tail_blocks = 20

type inst = {
  built : W.built;
  mgr : Runtime.t;
  build_s : float;
  arm_s : float;  (* create_trigger over all triggers *)
}

(* state shared with the benchmark-registered action *)
let write_t0 = ref 0L
let first_dispatch = ref 0L
let actions = ref 0
let sampling = ref false
let notify = Samples.create ()
let writes = Samples.create ()
let first = Samples.create ()

let on_record _ =
  let t = now () in
  incr actions;
  if !first_dispatch = 0L then first_dispatch := t;
  if !sampling then Samples.add notify (ms_between !write_t0 t)

let setup ~target _ =
  let t0 = now () in
  let built = W.build params in
  let t1 = now () in
  let mgr = Runtime.create ~strategy:Runtime.Grouped built.W.db in
  Runtime.define_view mgr ~name:"doc" built.W.view_text;
  Runtime.register_action mgr ~name:"record" on_record;
  let t2 = now () in
  W.install_triggers mgr params ~target_name:built.W.top_names.(target);
  let t3 = now () in
  ({ built; mgr; build_s = s_between t0 t1; arm_s = s_between t2 t3 }, s_between t0 t3)

let run ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let n_top = max 1 (params.W.leaf_tuples / params.W.fanout) in
  let target = Random.State.int rng n_top in
  let phases = ref [] in
  let build i =
    let inst, s = setup ~target i in
    phases := (inst.build_s, inst.arm_s) :: !phases;
    (inst, s)
  in
  let inst, setup_times = repeat_setup setups ~dispose:ignore build in
  let ledger =
    Ledger.create (Relkit.Database.get_table inst.built.W.db (W.table_name params.W.depth))
  in
  let firings_per_write = ref (-1) in
  let n_writes = ref 0 and n_hot = ref 0 in
  let write ~top ~hot =
    let leaves = inst.built.W.leaf_ids_of_top.(top) in
    let step = Random.State.int rng (Array.length leaves) in
    ignore (Ledger.bump ledger leaves.(step));
    let st = Runtime.stats inst.mgr in
    let f0 = st.Runtime.sql_firings and a0 = !actions in
    first_dispatch := 0L;
    let t0 = now () in
    write_t0 := t0;
    W.update_leaf inst.built ~top_index:top ~step;
    let t1 = now () in
    if !sampling then begin
      Samples.add writes (ms_between t0 t1);
      if !first_dispatch <> 0L then Samples.add first (ms_between t0 !first_dispatch)
    end;
    incr n_writes;
    if hot then incr n_hot;
    let fired = (Runtime.stats inst.mgr).Runtime.sql_firings - f0 in
    if !firings_per_write < 0 then firings_per_write := fired;
    check (fired = !firings_per_write) "write %d: %d SQL firings, expected %d" !n_writes fired
      !firings_per_write;
    let acted = !actions - a0 in
    let want = if hot then params.W.num_satisfied else 0 in
    check (acted = want) "write %d: %d actions, expected %d" !n_writes acted want
  in
  let round () =
    let hot_pos = Random.State.int rng writes_per_round in
    for k = 0 to writes_per_round - 1 do
      if k = hot_pos then write ~top:target ~hot:true
      else
        let other = Random.State.int rng (n_top - 1) in
        write ~top:(if other >= target then other + 1 else other) ~hot:false
    done
  in
  (* warm-up: fault in indexes, shared plans and build-side caches *)
  let a_start = !actions in
  let c_start = Counters.snapshot inst.mgr in
  for _ = 1 to 8 do
    round ()
  done;
  let c0 = Counters.snapshot inst.mgr in
  sampling := true;
  let w = run_window ~tail_blocks ~seconds ~trace round in
  sampling := false;
  let c1 = Counters.snapshot inst.mgr in
  (* exact counts: every dispatch is one of the 20 satisfied triggers on a
     hot write, and the runtime agrees with the action's own count *)
  let acted = !actions - a_start in
  check (acted = params.W.num_satisfied * !n_hot) "actions %d, expected 20 x %d hot writes" acted
    !n_hot;
  let dispatched = int_of_float (c1.Counters.dispatched -. c_start.Counters.dispatched) in
  check (dispatched = acted) "runtime dispatched %d, action saw %d" dispatched acted;
  Ledger.check_final ledger;
  let heap = peak_heap_mb () in
  let target_name = inst.built.W.top_names.(target) in
  let build_s = median (List.map fst !phases) in
  let arm_s = median (List.map snd !phases) in
  let ops_per_s = float_of_int (w.rounds * writes_per_round) /. w.elapsed_s in
  let traced_ops_per_s =
    if w.traced_s > 0.0 then float_of_int (w.traced_rounds * writes_per_round) /. w.traced_s
    else 0.0
  in
  let window_writes = (w.rounds + w.traced_rounds) * writes_per_round in
  let layer =
    Counters.layer_metrics (Counters.diff c1 c0) ~writes:window_writes ~ops:window_writes
    @ [ m "runtime.first_dispatch_ms" "ms" (Samples.mean first);
        m "setup.build_s" "s" build_s;
        m "setup.arm_ms_per_trigger" "ms" (arm_s *. 1000.0 /. float_of_int params.W.num_triggers);
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
        m "hot_writes" "count" (float_of_int !n_hot);
        m "runtime.firings_per_write.exact" "count" (float_of_int !firings_per_write);
        m "traced_ops_per_s" "1/s" traced_ops_per_s;
      ];
    attempted = !n_writes;
    info =
      [ ("params", "depth 3, 128000 leaves, fanout 64, 10000 triggers, 20 satisfied");
        ("strategy", "GROUPED, 1 domain, no WAL");
        ("target_element", target_name);
        ("setup_s.each", String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
      ];
  }
