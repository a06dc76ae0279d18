(* http-mixed: reads beside writes on one runtime, over the HTTP front door.

   A small Table 2 database behind [Httpfront.Api] on a loopback port; one
   keep-alive request connection and one SSE stream on a subscription to
   one watched element.  The single client thread pumps
   [Api.step ~timeout_ms:0] between non-blocking reads: no sleeps, no
   client domains.  Each round sends, in seeded order, two RQL reads
   ([eq(name,…)] and [sort(…)&limit(…)]), two [POST /sql] point UPDATEs
   and two [POST /views/doc/update] REPLACE NODEs of a leaf price; one
   write of each kind falls under the watched element. *)

open Harness
module W = Workloadlib.Workload
module Runtime = Trigview.Runtime
module Api = Httpfront.Api

let params = { W.quick_defaults with W.leaf_tuples = 1024; num_triggers = 0; num_satisfied = 0 }

let setup_gap_s = 0.25
let setups = 24

(* 6 s tail blocks at 30 s keep 10 or more samples beyond each class's p99
   in every block *)
let tail_blocks = 5
let requests_per_round = 6
let page = 5

type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

type inst = {
  built : W.built;
  mgr : Runtime.t;
  api : Api.t;
  req : conn;
  sse : conn;
  build_s : float;
}

let chunk = Bytes.create 65536

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; inbuf = Buffer.create 65536 }

let read_avail c =
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let find_sub s sub from =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then -1 else if String.sub s i k = sub then i else go (i + 1) in
  go from

let consume c upto =
  let s = Buffer.contents c.inbuf in
  Buffer.clear c.inbuf;
  Buffer.add_string c.inbuf (String.sub s upto (String.length s - upto))

(* one complete content-length-framed response off [c], if buffered *)
let take_response c =
  let s = Buffer.contents c.inbuf in
  let h = find_sub s "\r\n\r\n" 0 in
  if h < 0 then None
  else begin
    let head = String.lowercase_ascii (String.sub s 0 h) in
    let len =
      let k = find_sub head "content-length:" 0 in
      if k < 0 then 0
      else
        let e = match String.index_from_opt head k '\r' with Some e -> e | None -> String.length head in
        int_of_string (String.trim (String.sub head (k + 15) (e - k - 15)))
    in
    if String.length s < h + 4 + len then None
    else begin
      consume c (h + 4 + len);
      Some (int_of_string (String.sub s 9 3), String.sub s (h + 4) len)
    end
  end

(* SSE stream state: head seen, events parsed, id contiguity *)
let sse_head_seen = ref false
let sse_events = ref 0
let sse_last_id = ref (-1)
let sse_gaps = ref 0
let write_t0 = ref 0L
let first_event = ref 0L
let sampling = ref false
let notify = Samples.create ()

let parse_sse c =
  if not !sse_head_seen then begin
    let s = Buffer.contents c.inbuf in
    let h = find_sub s "\r\n\r\n" 0 in
    if h >= 0 then begin
      sse_head_seen := true;
      consume c (h + 4)
    end
  end;
  if !sse_head_seen then begin
    let s = Buffer.contents c.inbuf in
    let rec frames from =
      let e = find_sub s "\n\n" from in
      if e < 0 then from
      else begin
        let frame = String.sub s from (e - from) in
        let t = now () in
        incr sse_events;
        if !first_event = 0L then first_event := t;
        if !sampling then Samples.add notify (ms_between !write_t0 t);
        (match String.split_on_char '\n' frame with
        | id :: _ when String.length id > 4 && String.sub id 0 4 = "id: " ->
          let id = int_of_string (String.sub id 4 (String.length id - 4)) in
          if !sse_last_id >= 0 && id <> !sse_last_id + 1 then incr sse_gaps;
          sse_last_id := id
        | _ -> incr sse_gaps);
        frames (e + 2)
      end
    in
    let used = frames 0 in
    if used > 0 then consume c used
  end

let step_busy_ns = ref 0.0

let pump inst =
  let t0 = now () in
  let n = Api.step ~timeout_ms:0 inst.api in
  if !Spans.on && n > 0 then step_busy_ns := !step_busy_ns +. Int64.to_float (Int64.sub (now ()) t0);
  read_avail inst.req;
  read_avail inst.sse;
  parse_sse inst.sse

let send inst c s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        pump inst;
        go off
  in
  go 0

let watch_ddl built ~watched =
  Printf.sprintf
    "feed AFTER UPDATE ON view('doc')/%s WHERE NEW_NODE/@name = '%s' QUEUE 1024 OVERFLOW \
     drop-oldest COALESCE off"
    (W.elem_name 1) built.W.top_names.(watched)

let setup ~watched _ =
  let t0 = now () in
  let built = W.build params in
  let t1 = now () in
  let mgr = Runtime.create ~strategy:Runtime.Grouped built.W.db in
  Runtime.define_view mgr ~name:"doc" built.W.view_text;
  let hub = Subscribe.attach mgr in
  Subscribe.subscribe hub (watch_ddl built ~watched);
  let api = Api.create ~port:0 ~mgr ~hub () in
  let req = connect (Api.port api) in
  let sse = connect (Api.port api) in
  let inst = { built; mgr; api; req; sse; build_s = s_between t0 t1 } in
  sse_head_seen := false;
  sse_events := 0;
  sse_last_id := -1;
  send inst sse "GET /subscribe/feed HTTP/1.1\r\nhost: perfbench\r\n\r\n";
  let deadline = Int64.add t0 10_000_000_000L in
  while (not !sse_head_seen) && now () < deadline do
    pump inst
  done;
  (inst, s_between t0 (now ()))

let dispose inst =
  (try Unix.close inst.req.fd with Unix.Unix_error _ -> ());
  (try Unix.close inst.sse.fd with Unix.Unix_error _ -> ());
  Api.stop inst.api

let contains s sub = find_sub s sub 0 >= 0

let run ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let n_top = max 1 (params.W.leaf_tuples / params.W.fanout) in
  let watched = Random.State.int rng n_top in
  let phases = ref [] in
  let build i =
    let inst, s = setup ~watched i in
    (* set-up 0 is the untimed warm-up *)
    if i > 0 then phases := inst.build_s :: !phases;
    (inst, s)
  in
  let leaf_table = W.table_name params.W.depth in
  let reads = Samples.create () and sqls = Samples.create () and vdmls = Samples.create () in
  let first = Samples.create () in
  let rtt_ms = ref 0.0 and n_req = ref 0 in
  let inst, setup_times = repeat_setup ~warmup:1 ~gap_s:setup_gap_s setups ~dispose build in
  check !sse_head_seen "SSE stream did not open";
  let watched_name = inst.built.W.top_names.(watched) in
  let fields = Runtime.view_level_fields inst.mgr ~view:"doc" () in
  let ledger = Ledger.create (Relkit.Database.get_table inst.built.W.db leaf_table) in
  let level_rows = List.length (Runtime.view_rows inst.mgr ~view:"doc" ()) in
  let watched_writes = ref 0 in
  let request ~samples ~meth ~target ~body ~watched:w =
    let ev0 = !sse_events in
    first_event := 0L;
    let msg =
      if meth = "GET" then Printf.sprintf "GET %s HTTP/1.1\r\nhost: perfbench\r\n\r\n" target
      else
        Printf.sprintf "%s %s HTTP/1.1\r\nhost: perfbench\r\ncontent-length: %d\r\n\r\n%s" meth
          target (String.length body) body
    in
    let t0 = now () in
    write_t0 := t0;
    send inst inst.req msg;
    let deadline = Int64.add t0 10_000_000_000L in
    let resp = ref None in
    while (!resp = None || (w && !sse_events = ev0)) && now () < deadline do
      pump inst;
      if !resp = None then
        match take_response inst.req with
        | Some r -> resp := Some (r, now ())
        | None -> ()
    done;
    incr n_req;
    if w then incr watched_writes;
    if !sampling && !first_event <> 0L then Samples.add first (ms_between t0 !first_event);
    check ((not w) || !sse_events = ev0 + 1) "request %d: %d SSE events, expected 1" !n_req
      (!sse_events - ev0);
    match !resp with
    | None ->
      check false "request %d (%s %s): no response" !n_req meth target;
      ""
    | Some ((status, body), t1) ->
      let ms = ms_between t0 t1 in
      rtt_ms := !rtt_ms +. ms;
      if !sampling then Samples.add samples ms;
      check (status >= 200 && status < 300) "request %d (%s %s): status %d %s" !n_req meth target
        status body;
      body
  in
  let random_leaf e =
    let leaves = inst.built.W.leaf_ids_of_top.(e) in
    leaves.(Random.State.int rng (Array.length leaves))
  in
  let other () =
    let o = Random.State.int rng (n_top - 1) in
    if o >= watched then o + 1 else o
  in
  let read target = request ~samples:reads ~meth:"GET" ~watched:false ~body:"" ~target in
  let read_eq () =
    let e = Random.State.int rng n_top in
    let body =
      read (Printf.sprintf "/views/doc?eq(name,string:%s)" inst.built.W.top_names.(e))
    in
    check (contains body "\"total\": 1, \"count\": 1,") "eq read: unexpected body shape"
  in
  let read_sorted () =
    let off = Random.State.int rng (n_top - page) in
    let body = read (Printf.sprintf "/views/doc?sort(-name)&limit(%d,%d)" off page) in
    check
      (contains body (Printf.sprintf "\"total\": %d, \"count\": %d," level_rows page))
      "sorted read: unexpected body shape"
  in
  let sql e ~watched:w =
    let leaf = random_leaf e in
    ignore (Ledger.bump ledger leaf);
    let body =
      request ~samples:sqls ~meth:"POST" ~target:"/sql" ~watched:w
        ~body:(Printf.sprintf "UPDATE %s SET price = price + 1.0 WHERE id = '%s'" leaf_table leaf)
    in
    check (body = "{\"affected\": 1}") "sql write: unexpected body %s" body
  in
  let vdml e ~watched:w =
    let leaf = random_leaf e in
    let p = Ledger.bump ledger leaf in
    let body =
      request ~samples:vdmls ~meth:"POST" ~target:"/views/doc/update" ~watched:w
        ~body:
          (Printf.sprintf
             "REPLACE NODE view('doc')/%s/%s/%s[./id = '%s'] WITH <%s><id>%s</id><price>%.1f</price></%s>"
             (W.elem_name 1) (W.elem_name 2) (W.elem_name 3) leaf (W.elem_name 3) leaf p
             (W.elem_name 3))
    in
    check (contains body "\"ok\": true" && contains body "\"targets\": 1,")
      "view update: unexpected body %s" body
  in
  let round () =
    let items = [| 0; 1; 2; 3; 4; 5 |] in
    for i = Array.length items - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = items.(i) in
      items.(i) <- items.(j);
      items.(j) <- x
    done;
    Array.iter
      (function
        | 0 -> read_eq ()
        | 1 -> read_sorted ()
        | 2 -> sql watched ~watched:true
        | 3 -> sql (other ()) ~watched:false
        | 4 -> vdml watched ~watched:true
        | _ -> vdml (other ()) ~watched:false)
      items
  in
  let registry () =
    List.map
      (fun (name, h) -> (name, (Obs.Metrics.count h, Obs.Metrics.sum_ns h)))
      (Obs.Metrics.histograms (Api.registry inst.api))
  in
  let events_start = !sse_events in
  for _ = 1 to 4 do
    round ()
  done;
  let c0 = Counters.snapshot inst.mgr and r0 = registry () in
  let rtt0 = !rtt_ms and req0 = !n_req in
  sampling := true;
  let w = run_window ~tail_blocks ~seconds ~trace round in
  sampling := false;
  let c1 = Counters.snapshot inst.mgr and r1 = registry () in
  (* let the last frames arrive, then check the stream *)
  for _ = 1 to 20 do
    pump inst
  done;
  let events = !sse_events - events_start in
  check (events = !watched_writes) "SSE events %d, watched writes %d" events !watched_writes;
  check (!sse_gaps = 0) "%d SSE frames without a contiguous id" !sse_gaps;
  Ledger.check_final ledger;
  let heap = peak_heap_mb () in
  dispose inst;
  let handlers =
    List.map
      (fun (name, (c, s)) ->
        let c0, s0 = Option.value (List.assoc_opt name r0) ~default:(0, 0.0) in
        (name, (c - c0, s -. s0)))
      r1
  in
  let rtt = !rtt_ms -. rtt0 and reqs = !n_req - req0 in
  let delta = Counters.diff c1 c0 in
  let window_reqs = (w.rounds + w.traced_rounds) * requests_per_round in
  let window_writes = (w.rounds + w.traced_rounds) * 4 in
  (* mean handler time over the window: all handlers, or those of [label] *)
  let handler_ms ?label () =
    let c, s =
      List.fold_left
        (fun (c, s) (name, (c', s')) ->
          if label = None || label = Some name then (c + c', s +. s') else (c, s))
        (0, 0.0) handlers
    in
    Counters.ms_per s c
  in
  let base = Counters.layer_metrics delta ~writes:window_writes ~ops:window_reqs in
  let sql_ms = handler_ms ~label:"http:POST /sql" () in
  let layer =
    base
    @ [ m "runtime.first_dispatch_ms" "ms" (Samples.mean first);
        m "sql.exec_ms" "ms" sql_ms;
        m "sql.self_ms" "ms" (sql_ms -. Counters.find "runtime.fire_ms" base);
        m "http.handler_ms.views" "ms" (handler_ms ~label:"http:GET /views" ());
        m "http.handler_ms.sql" "ms" sql_ms;
        m "http.handler_ms.view_update" "ms" (handler_ms ~label:"http:POST /views/update" ());
        m "http.transport_ms" "ms" ((rtt /. float_of_int reqs) -. handler_ms ());
        m "http.step_busy_share" "ratio"
          (if w.traced_s > 0.0 then !step_busy_ns /. 1e9 /. w.traced_s else 0.0);
        m "read_p50_ms" "ms" (Samples.percentile reads 0.50);
        m "read_p99_ms" "ms" (Samples.block_percentile reads 0.99);
        m "viewdml_p50_ms" "ms" (Samples.percentile vdmls 0.50);
        m "viewdml_p99_ms" "ms" (Samples.block_percentile vdmls 0.99);
        m "setup.build_s" "s" (median !phases);
      ]
  in
  let ops_per_s = float_of_int (w.rounds * requests_per_round) /. w.elapsed_s in
  let traced_ops_per_s =
    if w.traced_s > 0.0 then float_of_int (w.traced_rounds * requests_per_round) /. w.traced_s
    else 0.0
  in
  { e2e =
      [ m "setup_s" "s" (median setup_times);
        m "ops_per_s" "1/s" ops_per_s;
        m "write_p50_ms" "ms" (Samples.percentile sqls 0.50);
        m "write_p99_ms" "ms" (Samples.block_percentile sqls 0.99);
        m "notify_p50_ms" "ms" (Samples.percentile notify 0.50);
        m "notify_p99_ms" "ms" (Samples.block_percentile notify 0.99);
        m "peak_heap_mb" "MB" heap;
      ];
    layer;
    extra =
      [ m "read_p50_ms" "ms" (Samples.percentile reads 0.50);
        m "read_p99_ms" "ms" (Samples.block_percentile reads 0.99);
        m "viewdml_p50_ms" "ms" (Samples.percentile vdmls 0.50);
        m "viewdml_p99_ms" "ms" (Samples.block_percentile vdmls 0.99);
        m "read.samples" "count" (float_of_int (Samples.count reads));
        m "read.beyond_p99" "count" (float_of_int (Samples.min_beyond reads 0.99));
        m "write.samples" "count" (float_of_int (Samples.count sqls));
        m "write.beyond_p99" "count" (float_of_int (Samples.min_beyond sqls 0.99));
        m "viewdml.samples" "count" (float_of_int (Samples.count vdmls));
        m "viewdml.beyond_p99" "count" (float_of_int (Samples.min_beyond vdmls 0.99));
        m "notify.samples" "count" (float_of_int (Samples.count notify));
        m "notify.beyond_p99" "count" (float_of_int (Samples.min_beyond notify 0.99));
        m "sse.events" "count" (float_of_int events);
        m "traced_ops_per_s" "1/s" traced_ops_per_s;
      ];
    attempted = !n_req;
    info =
      [ ("params",
          Printf.sprintf "depth 3, %d leaves, fanout 64, %d top-level elements"
            params.W.leaf_tuples n_top);
        ("watched_element", watched_name);
        ("view_fields", String.concat "," fields);
        ("setup_s.each", String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
      ];
  }
