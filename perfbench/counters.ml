(* Before/after snapshots of the counters the layers already export:
   Runtime.stats, scan rows, the runtime's latency registry, the WAL
   timings and the OCaml GC.  A window's per-layer figures come from the
   difference of two snapshots. *)

module Runtime = Trigview.Runtime
module Metrics = Obs.Metrics

type t = {
  sql_firings : float;
  pairs : float;
  dispatched : float;
  skips : float;
  cache_hits : float;
  cache_misses : float;
  scan_rows : float;
  fire_ns : float;  (* summed bodies of the [firing:*] histograms *)
  wal_appends : float;
  wal_append_ns : float;
  wal_fsyncs : float;
  wal_fsync_ns : float;
  minor_words : float;
  major_collections : float;
}

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let snapshot mgr =
  let st = Runtime.stats mgr in
  let fire_ns =
    List.fold_left
      (fun acc (name, h) -> if starts_with "firing:" name then acc +. Metrics.sum_ns h else acc)
      0.0 (Runtime.latencies mgr)
  in
  let wal name =
    match List.assoc_opt name (Runtime.durability_timings mgr) with
    | Some h -> (float_of_int (Metrics.count h), Metrics.sum_ns h)
    | None -> (0.0, 0.0)
  in
  let wal_appends, wal_append_ns = wal "wal.append" in
  let wal_fsyncs, wal_fsync_ns = wal "wal.fsync" in
  let gc = Gc.quick_stat () in
  let f = float_of_int in
  { sql_firings = f st.Runtime.sql_firings;
    pairs = f st.Runtime.rows_computed;
    dispatched = f st.Runtime.actions_dispatched;
    skips = f (st.Runtime.prefilter_skips + st.Runtime.independence_skips);
    cache_hits = f st.Runtime.build_cache_hits;
    cache_misses = f st.Runtime.build_cache_misses;
    scan_rows = f (Runtime.scan_rows_total mgr);
    fire_ns;
    wal_appends;
    wal_append_ns;
    wal_fsyncs;
    wal_fsync_ns;
    minor_words = gc.Gc.minor_words;
    major_collections = f gc.Gc.major_collections;
  }

let map2 op a b =
  { sql_firings = op a.sql_firings b.sql_firings;
    pairs = op a.pairs b.pairs;
    dispatched = op a.dispatched b.dispatched;
    skips = op a.skips b.skips;
    cache_hits = op a.cache_hits b.cache_hits;
    cache_misses = op a.cache_misses b.cache_misses;
    scan_rows = op a.scan_rows b.scan_rows;
    fire_ns = op a.fire_ns b.fire_ns;
    wal_appends = op a.wal_appends b.wal_appends;
    wal_append_ns = op a.wal_append_ns b.wal_append_ns;
    wal_fsyncs = op a.wal_fsyncs b.wal_fsyncs;
    wal_fsync_ns = op a.wal_fsync_ns b.wal_fsync_ns;
    minor_words = op a.minor_words b.minor_words;
    major_collections = op a.major_collections b.major_collections;
  }

(* [diff b a]: what happened between snapshots [a] and [b] *)
let diff = map2 ( -. )

let per x n = if n = 0 then 0.0 else x /. float_of_int n
let ms_per ns n = per (ns /. 1e6) n

(* Per-layer metrics of the firing path, the WAL and the GC from the
   difference [d] of a window that issued [writes] DML statements and
   [ops] operations. *)
let layer_metrics d ~writes ~ops =
  let m = Harness.m in
  let lookups = d.cache_hits +. d.cache_misses in
  [ m "runtime.firings_per_write" "count" (per d.sql_firings writes);
    m "runtime.skipped_per_write" "count" (per d.skips writes);
    m "runtime.scan_rows_per_write" "count" (per d.scan_rows writes);
    m "runtime.pairs_per_write" "count" (per d.pairs writes);
    m "runtime.dispatch_per_write" "count" (per d.dispatched writes);
    m "runtime.fire_ms" "ms" (ms_per d.fire_ns writes);
    m "ra_compile.build_cache_hit_ratio" "ratio"
      (if lookups = 0.0 then 0.0 else d.cache_hits /. lookups);
    m "wal.append_ms" "ms" (ms_per d.wal_append_ns writes);
    m "wal.fsync_ms" "ms" (if d.wal_fsyncs = 0.0 then 0.0 else d.wal_fsync_ns /. 1e6 /. d.wal_fsyncs);
    m "wal.fsyncs_per_write" "count" (per d.wal_fsyncs writes);
    m "gc.minor_words_per_op" "words" (per d.minor_words ops);
    m "gc.major_collections" "count" d.major_collections;
  ]

let find name ms = (List.find (fun x -> x.Harness.name = name) ms).Harness.value
