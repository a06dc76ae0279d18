(* The subscription & delivery subsystem: bounded queues (unit + qcheck
   invariants), notification rendering and coalescing keys, the hub over a
   live trigger runtime (callback and file sinks, coalescing windows,
   unsubscribe).  Network delivery — SSE replay from a cursor, gap markers,
   concurrent streams, subscriptions surviving checkpoint + reopen — is
   tested end to end in test_http.ml. *)

module Squeue = Subscribe.Squeue
module Notification = Subscribe.Notification

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- queue unit tests --- *)

let push q k v = Subscribe.Squeue.push q ~key:k v

let test_queue_fifo () =
  let q = Squeue.create ~capacity:8 () in
  List.iter (fun i -> ignore (push q (string_of_int i) i)) [ 1; 2; 3 ];
  Alcotest.(check int) "depth" 3 (Squeue.depth q);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (Squeue.flush q);
  Alcotest.(check int) "drained" 0 (Squeue.depth q);
  Alcotest.(check int) "delivered" 3 (Squeue.delivered q);
  Alcotest.(check (list int)) "second flush empty" [] (Squeue.flush q);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_drop_oldest () =
  let q = Squeue.create ~capacity:3 ~overflow:Squeue.Drop_oldest () in
  List.iter (fun i -> ignore (push q (string_of_int i) i)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "bounded" 3 (Squeue.depth q);
  Alcotest.(check (list int)) "oldest evicted" [ 3; 4; 5 ] (Squeue.flush q);
  Alcotest.(check int) "dropped" 2 (Squeue.dropped q);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_drop_newest () =
  let q = Squeue.create ~capacity:3 ~overflow:Squeue.Drop_newest () in
  let results = List.map (fun i -> push q (string_of_int i) i) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "newest rejected" [ 1; 2; 3 ] (Squeue.flush q);
  Alcotest.(check bool) "push reported drop" true
    (List.nth results 3 = Squeue.Dropped && List.nth results 4 = Squeue.Dropped);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_disconnect () =
  let q = Squeue.create ~capacity:2 ~overflow:Squeue.Disconnect () in
  ignore (push q "a" 1);
  ignore (push q "b" 2);
  Alcotest.(check bool) "overflow disconnects" true (push q "c" 3 = Squeue.Disconnected);
  Alcotest.(check bool) "flag set" true (Squeue.disconnected q);
  Alcotest.(check int) "pending discarded with the subscriber" 0 (Squeue.depth q);
  Alcotest.(check bool) "pushes rejected while disconnected" true
    (push q "d" 4 = Squeue.Disconnected);
  Alcotest.(check int) "all 4 accounted as dropped" 4 (Squeue.dropped q);
  Squeue.reconnect q;
  Alcotest.(check bool) "accepts again after reconnect" true (push q "e" 5 = Squeue.Enqueued);
  Alcotest.(check (list int)) "delivers after reconnect" [ 5 ] (Squeue.flush q);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_coalesce () =
  let q = Squeue.create ~capacity:8 ~coalesce:true () in
  Alcotest.(check bool) "first is enqueued" true (push q "a" 1 = Squeue.Enqueued);
  ignore (push q "b" 2);
  Alcotest.(check bool) "same key coalesces" true (push q "a" 3 = Squeue.Coalesced);
  (* the coalesced key keeps its original (first-arrival) position but
     carries the latest payload *)
  Alcotest.(check (list int)) "in-place replacement" [ 3; 2 ] (Squeue.flush q);
  Alcotest.(check int) "coalesced counted" 1 (Squeue.coalesced q);
  (* coalescing is scoped to the flush window: after a flush the key is new *)
  Alcotest.(check bool) "window reset" true (push q "a" 4 = Squeue.Enqueued);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

(* --- qcheck: queue invariants under arbitrary workloads --- *)

type qop = Push of int * int | Flush  (* Push (key, payload) *)

let qop_gen =
  QCheck.Gen.(
    frequency
      [ (8, map2 (fun k v -> Push (k, v)) (int_bound 5) (int_bound 1000));
        (1, return Flush);
      ])

let qops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function Push (k, v) -> Printf.sprintf "p%d=%d" k v | Flush -> "f")
           ops))
    QCheck.Gen.(list_size (int_bound 200) qop_gen)

let params_arb =
  QCheck.make
    QCheck.Gen.(
      triple (1 -- 16) (int_bound 2) bool (* capacity, overflow, coalesce *))

let overflow_of_int = function
  | 0 -> Squeue.Drop_oldest
  | 1 -> Squeue.Drop_newest
  | _ -> Squeue.Disconnect

let qcheck_accounting =
  QCheck.Test.make ~name:"queue accounting invariant" ~count:300
    (QCheck.pair params_arb qops_arb)
    (fun ((cap, ovf, coal), ops) ->
      let q = Squeue.create ~capacity:cap ~overflow:(overflow_of_int ovf) ~coalesce:coal () in
      List.iter
        (function
          | Push (k, v) -> ignore (push q (string_of_int k) v)
          | Flush -> ignore (Squeue.flush q))
        ops;
      ignore (Squeue.flush q);
      Squeue.invariant_holds q
      && Squeue.enqueued q
         = Squeue.delivered q + Squeue.dropped q + Squeue.coalesced q)

let qcheck_bounded_depth =
  QCheck.Test.make ~name:"queue depth never exceeds capacity" ~count:300
    (QCheck.pair params_arb qops_arb)
    (fun ((cap, ovf, coal), ops) ->
      let q = Squeue.create ~capacity:cap ~overflow:(overflow_of_int ovf) ~coalesce:coal () in
      List.for_all
        (function
          | Push (k, v) ->
            ignore (push q (string_of_int k) v);
            Squeue.depth q <= cap
          | Flush ->
            ignore (Squeue.flush q);
            Squeue.depth q = 0)
        ops)

(* Under coalescing with no overflow pressure: each key appears at most once
   per flush, carries the key's last-pushed payload, and keys leave in
   first-arrival order. *)
let qcheck_coalesce_order =
  QCheck.Test.make ~name:"per-key coalescing: last payload, first-arrival order"
    ~count:300 qops_arb (fun ops ->
      let q = Squeue.create ~capacity:2048 ~coalesce:true () in
      (* payload = (key, value) so the flushed items identify their keys *)
      let expect_order = ref [] (* first-arrival order, reversed *) in
      let expect_last = Hashtbl.create 8 in
      let check_flush () =
        let out = Squeue.flush q in
        let expected =
          List.rev_map (fun k -> (k, Hashtbl.find expect_last k)) !expect_order
        in
        expect_order := [];
        Hashtbl.reset expect_last;
        out = expected
      in
      List.for_all
        (function
          | Push (k, v) ->
            ignore (push q (string_of_int k) (k, v));
            if not (Hashtbl.mem expect_last k) then expect_order := k :: !expect_order;
            Hashtbl.replace expect_last k v;
            true
          | Flush -> check_flush ())
        ops
      && check_flush ())

(* --- notifications --- *)

let elem tag attrs children = Xmlkit.Xml.Element { tag; attrs; children }

let test_notification_ndjson () =
  let n =
    Notification.make ~subscription:"feed" ~seq:3 ~stmt_id:17 ~event:"UPDATE"
      ~trigger:"sub$feed"
      ~old_xml:(Some (elem "p" [ ("name", "a\"b") ] [ Xmlkit.Xml.Text "1" ]))
      ~new_xml:None
  in
  Alcotest.(check string) "ndjson"
    "{\"subscription\": \"feed\", \"seq\": 3, \"stmt\": 17, \"event\": \
     \"UPDATE\", \"trigger\": \"sub$feed\", \"old\": \
     \"<p name=\\\"a&quot;b\\\">1</p>\", \"new\": null}"
    (Notification.to_ndjson n)

let test_notification_key () =
  let mk ?old_xml ?new_xml seq =
    Notification.make ~subscription:"s" ~seq ~stmt_id:0 ~event:"UPDATE"
      ~trigger:"t" ~old_xml ~new_xml
  in
  let a1 = mk ~new_xml:(elem "p" [ ("name", "x") ] [ Xmlkit.Xml.Text "1" ]) 1 in
  let a2 = mk ~new_xml:(elem "p" [ ("name", "x") ] [ Xmlkit.Xml.Text "2" ]) 2 in
  let b = mk ~new_xml:(elem "p" [ ("name", "y") ] []) 3 in
  Alcotest.(check bool) "same node, different content: same key" true
    (Notification.key a1 = Notification.key a2);
  Alcotest.(check bool) "different node: different key" false
    (Notification.key a1 = Notification.key b);
  (* DELETE has only OLD_NODE; it must still coalesce with the same node *)
  let d = mk ~old_xml:(elem "p" [ ("name", "x") ] []) 4 in
  Alcotest.(check bool) "old-node key matches new-node key" true
    (Notification.key a1 = Notification.key d)

(* --- the hub over a live runtime --- *)

let catalog_text =
  {|<catalog>
  {for $prodname in distinct(view("default")/product/row/pname)
   let $products := view("default")/product/row[./pname = $prodname]
   let $vendors := view("default")/vendor/row[./pid = $products/pid]
   where count($vendors) >= 2
   return <product name="{$prodname}">
     {for $vendor in $vendors
      return <vendor>{$vendor/*}</vendor>}
   </product>}
</catalog>|}

let setup_hub ?(strategy = Trigview.Runtime.Grouped_agg) () =
  let db = Fixtures.mk_db () in
  let mgr = Trigview.Runtime.create ~strategy db in
  Trigview.Runtime.define_view mgr ~name:"catalog" catalog_text;
  let hub = Subscribe.attach mgr in
  (db, mgr, hub)

let crt_sub = "crt AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'CRT 15'"

let test_hub_callback_delivery () =
  let db, _mgr, hub = setup_hub () in
  let got = ref [] in
  Subscribe.add_callback hub (fun n -> got := n :: !got);
  Subscribe.subscribe hub crt_sub;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Alcotest.(check int) "queued, not yet delivered" 0 (List.length !got);
  Alcotest.(check int) "flush delivers one" 1 (Subscribe.flush hub);
  (match !got with
  | [ n ] ->
    let line = Notification.to_ndjson n in
    Alcotest.(check bool) "names its subscription" true
      (String.length line > 0
      && contains line "\"subscription\": \"crt\"")
  | _ -> Alcotest.fail "expected exactly one notification");
  (* an LCD 19 update does not match the WHERE *)
  Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:75.0;
  Alcotest.(check int) "condition filters" 0 (Subscribe.flush hub)

let test_hub_statement_order_and_stmt_ids () =
  let db, _mgr, hub = setup_hub () in
  let got = ref [] in
  Subscribe.add_callback hub (fun n -> got := n :: !got);
  Subscribe.subscribe hub (crt_sub ^ " COALESCE off");
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:77.0;
  Alcotest.(check int) "three delivered" 3 (Subscribe.flush hub);
  let seqs = List.rev_map (fun n -> n.Notification.seq) !got in
  let stmts = List.rev_map (fun n -> n.Notification.stmt_id) !got in
  Alcotest.(check (list int)) "seqs in statement order" [ 1; 2; 3 ] seqs;
  Alcotest.(check bool) "stmt ids strictly increasing" true
    (match stmts with
    | [ a; b; c ] -> a < b && b < c
    | _ -> false)

let test_hub_coalescing_window () =
  let db, _mgr, hub = setup_hub () in
  let got = ref [] in
  Subscribe.add_callback hub (fun n -> got := n :: !got);
  Subscribe.subscribe hub (crt_sub ^ " COALESCE on");
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:77.0;
  (* three firings for the same view node inside one window: one delivery,
     carrying the latest state *)
  Alcotest.(check int) "coalesced to one" 1 (Subscribe.flush hub);
  (match !got with
  | [ n ] ->
    let doc = Xmlkit.Xml_parse.parse (Notification.to_ndjson n |> fun _ ->
      match n.Notification.new_xml with
      | Some x -> Xmlkit.Xml.to_string ~canonical:true x
      | None -> "<none/>")
    in
    Alcotest.(check (list string)) "latest price wins" [ "77.0" ]
      (Xmlkit.Xpath.select_strings doc "/vendor[vid='Amazon']/price")
  | _ -> Alcotest.fail "expected one coalesced notification");
  (* the next window starts fresh *)
  got := [];
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:78.0;
  Alcotest.(check int) "next window delivers" 1 (Subscribe.flush hub)

let test_hub_unsubscribe_stops_delivery () =
  let db, mgr, hub = setup_hub () in
  Subscribe.subscribe hub crt_sub;
  let sql_before = Trigview.Runtime.sql_trigger_count mgr in
  Alcotest.(check bool) "SQL triggers armed" true (sql_before > 0);
  Subscribe.unsubscribe hub "crt";
  Alcotest.(check int) "SQL triggers dropped" 0 (Trigview.Runtime.sql_trigger_count mgr);
  Alcotest.(check (list string)) "registry empty" [] (Subscribe.subscription_names hub);
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Alcotest.(check int) "nothing delivered" 0 (Subscribe.flush hub)

let test_hub_ddl_errors () =
  let _db, _mgr, hub = setup_hub () in
  let expect_error text =
    match Subscribe.subscribe hub text with
    | () -> Alcotest.failf "expected rejection of %S" text
    | exception Subscribe.Error _ -> ()
  in
  expect_error "no keywords here";
  expect_error "bad name! AFTER UPDATE ON view('catalog')/product";
  expect_error "f AFTER SHRUG ON view('catalog')/product";
  expect_error "f AFTER UPDATE ON view('catalog')/product QUEUE -3";
  expect_error "f AFTER UPDATE ON view('catalog')/product OVERFLOW sideways";
  Subscribe.subscribe hub crt_sub;
  expect_error crt_sub (* duplicate name *)

let test_hub_file_sink () =
  let db, _mgr, hub = setup_hub () in
  let path = Filename.temp_file "trigview_sub" ".ndjson" in
  Subscribe.add_file hub ~path;
  Subscribe.subscribe hub crt_sub;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Alcotest.(check int) "two delivered" 2 (Subscribe.flush hub);
  Subscribe.close_sinks hub;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "two NDJSON lines" 2 (List.length !lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    !lines

let () =
  Alcotest.run "subscribe"
    [ ( "queue",
        [ Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "drop-oldest" `Quick test_queue_drop_oldest;
          Alcotest.test_case "drop-newest" `Quick test_queue_drop_newest;
          Alcotest.test_case "disconnect" `Quick test_queue_disconnect;
          Alcotest.test_case "coalesce" `Quick test_queue_coalesce;
          QCheck_alcotest.to_alcotest qcheck_accounting;
          QCheck_alcotest.to_alcotest qcheck_bounded_depth;
          QCheck_alcotest.to_alcotest qcheck_coalesce_order;
        ] );
      ( "notification",
        [ Alcotest.test_case "ndjson" `Quick test_notification_ndjson;
          Alcotest.test_case "coalescing key" `Quick test_notification_key;
        ] );
      ( "hub",
        [ Alcotest.test_case "callback delivery" `Quick test_hub_callback_delivery;
          Alcotest.test_case "statement order + stmt ids" `Quick
            test_hub_statement_order_and_stmt_ids;
          Alcotest.test_case "coalescing window" `Quick test_hub_coalescing_window;
          Alcotest.test_case "unsubscribe" `Quick test_hub_unsubscribe_stops_delivery;
          Alcotest.test_case "DDL errors" `Quick test_hub_ddl_errors;
          Alcotest.test_case "file sink" `Quick test_hub_file_sink;
        ] );
    ]
