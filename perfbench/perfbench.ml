(* The repository benchmark.  One run:

     perfbench --workload NAME --seed N --seconds S --trace 0|1 --wal-dir DIR

   sets the workload up (several times; the median set-up time is
   reported), warms it up, measures a closed loop for S seconds, checks
   the outputs, and prints a human-readable report (lines starting with
   '#') followed by one JSON result line carrying every metric the run
   computed.  With --trace 1 the window alternates traced and untraced
   blocks, and the per-layer figures that come from the benchmark's own
   spans are filled in.  run.py selects the metrics BENCHMARK.json names
   for the mode.  See README.md. *)

open Harness

let usage () =
  prerr_endline
    "usage: perfbench --workload paper-table2|sql-feed|http-mixed --seed N --seconds S --trace \
     0|1 --wal-dir DIR";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  let wal_dir = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--wal-dir" :: v :: rest -> wal_dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) || !wal_dir = "" then usage ();
  let trace = !trace = 1 in
  let run =
    match !workload with
    | "paper-table2" -> Table2.run
    | "sql-feed" -> Sqlfeed.run ~wal_root:!wal_dir
    | "http-mixed" -> Httpmix.run
    | _ -> usage ()
  in
  let spin0 = spin_ms () in
  let o = run ~seed:!seed ~seconds:!seconds ~trace in
  let spin1 = spin_ms () in
  let env_trigview =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.length kv > 9 && String.sub kv 0 9 = "TRIGVIEW_")
  in
  let info =
    [ ("workload", !workload); ("seed", string_of_int !seed);
      ("seconds", Printf.sprintf "%g" !seconds); ("trace", string_of_bool trace);
      ("ocaml", Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("trigview_env", if env_trigview = [] then "(none)" else String.concat " " env_trigview);
      ("host.spin_ms", Printf.sprintf "start %.3f end %.3f" spin0 spin1);
    ]
    @ o.info
  in
  List.iter (fun (k, v) -> Printf.printf "# %-16s %s\n" k v) info;
  let ops_ratio =
    let untraced = (List.find (fun x -> x.name = "ops_per_s") o.e2e).value in
    match List.find_opt (fun x -> x.name = "traced_ops_per_s") o.extra with
    | Some t when untraced > 0.0 -> t.value /. untraced
    | _ -> 0.0
  in
  let host =
    [ m "host.spin_ms.start" "ms" spin0; m "host.spin_ms.end" "ms" spin1;
      m "trace.ops_per_s_ratio" "ratio" ops_ratio;
    ]
  in
  print_metrics "end-to-end" o.e2e;
  print_metrics "details" o.extra;
  if trace then print_metrics "per-layer (traced blocks)" (o.layer @ host);
  List.iter (fun s -> Printf.printf "# FAILED CHECK: %s\n" s) (List.rev !failure_notes);
  print_endline
    (json_line ~attempted:(max 1 o.attempted) ~failed:(min !failures (max 1 o.attempted))
       (o.e2e @ o.layer @ host))
