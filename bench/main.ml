(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8) and times the analysis machinery with bechamel.

   Artifacts reproduced, in order:

     params  - the tunable-parameter table of Section 7.3
     fig5    - Figure 5: worst-case GTC, all data on one device
     fig7    - Figure 7: one device per table plus its indexes
     fig6    - Figure 6: every table and index set on its own device
     census  - Section 8.2: candidate-plan counts and complementary-pair
               classification per layout
     lsq     - Section 6.1.1: least-squares usage recovery through the
               narrow interface, with the <1% validation
     bounds  - Theorem 1 tightness (Example 1) and the Example 2 ratio
     diagram - a plan diagram (regions of influence over a 2-D cost
               slice) with its Observation-3 convexity check
     monte   - distributional sensitivity: worst case versus sampled
               GTC percentiles over the feasible region
     adapt   - the autonomic re-optimization policy comparison
     robust  - minimax (worst-case-GTC-minimizing) plan choice versus
               the nominal optimum
     calib   - closing the loop: recover drifted costs from observed
               executions, re-optimize, measure the recovery
     ablation- sensitivity versus join-graph topology, index set,
               sort-heap size, and bushy-enumeration cap
     timing  - bechamel micro-benchmarks of the machinery

   Run everything: dune exec bench/main.exe
   Run one part:   dune exec bench/main.exe -- fig5 census

   The `parallel` part sweeps the qsens_parallel domain pool over the
   enumeration and curve workloads; `--domains N` restricts the sweep
   to a single pool size (and, with no parts named, runs just that
   part).  It writes BENCH_parallel.json next to the CSVs. *)

open Qsens_core
module Table_r = Qsens_report.Table
module Figure = Qsens_report.Figure
module Obs = Qsens_obs.Obs

(* All bench timing reads the monotonic clock: wall-clock (gettimeofday)
   deltas are corrupted by NTP steps. *)
module Clock = Qsens_obs.Clock

let sf = Qsens_tpch.Spec.scale_factor_of_paper
let schema = Qsens_tpch.Spec.schema ~sf
let queries = Qsens_tpch.Queries.all ~sf

(* The probe budget per query: high-dimensional layouts (Figure 6) are
   sampled, as in the paper, which completed only 16 of 22 candidate sets
   there (Section 8.2). *)
let probe_budget = 1200

let heading title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* JSON artifacts land next to the CSVs: in QSENS_RESULTS_DIR when set
   (created on demand), else the working directory. *)
let results_dir () =
  match Sys.getenv_opt "QSENS_RESULTS_DIR" with
  | None -> "."
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      dir

(* When QSENS_RESULTS_DIR is set, every reproduced table is also written
   there as CSV for downstream plotting. *)
let save_csv name table =
  match Sys.getenv_opt "QSENS_RESULTS_DIR" with
  | None -> ()
  | Some _ ->
      let path = Filename.concat (results_dir ()) (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (Table_r.to_csv table);
      close_out oc;
      Printf.printf "[wrote %s]\n" path

let policy_of_figure = function
  | 5 -> Qsens_catalog.Layout.Same_device
  | 6 -> Qsens_catalog.Layout.Per_table_and_index_devices
  | 7 -> Qsens_catalog.Layout.Per_table_devices
  | _ -> invalid_arg "policy_of_figure"

(* Memoize per-layout runs: the census section reuses the figures'. *)
let layout_cache :
    (Qsens_catalog.Layout.policy, Experiment.report list) Hashtbl.t =
  Hashtbl.create 3

let reports policy =
  match Hashtbl.find_opt layout_cache policy with
  | Some r -> r
  | None ->
      let r =
        List.map
          (fun query ->
            let s = Experiment.setup ~schema ~policy query in
            Experiment.run ~max_probes:probe_budget s)
          queries
      in
      Hashtbl.add layout_cache policy r;
      r

(* ------------------------------------------------------------------ *)

let bench_params () =
  heading "Section 7.3: tunable system parameters";
  let t = Table_r.make ~header:[ "Parameter Name"; "Value" ] in
  List.iter
    (fun (k, v) -> Table_r.add_row t [ k; v ])
    Qsens_cost.Defaults.system_parameters;
  Table_r.print t

let bench_figure n =
  let policy = policy_of_figure n in
  heading
    (Printf.sprintf "Figure %d: worst-case global relative cost (layout: %s)"
       n
       (Qsens_catalog.Layout.policy_name policy));
  let t0 = Clock.now_s () in
  let rs = reports policy in
  let series =
    List.map (fun (r : Experiment.report) -> (r.query_name, r.curve)) rs
  in
  Table_r.print (Figure.series_table series);
  save_csv (Printf.sprintf "figure%d" n) (Figure.series_table series);
  print_newline ();
  print_string (Figure.ascii_plot series);
  print_newline ();
  Table_r.print (Figure.asymptote_summary series);
  let quadratic =
    List.length
      (List.filter
         (fun (_, c) ->
           match Worst_case.asymptote c with
           | `Quadratic _ -> true
           | `Bounded _ -> false)
         series)
  in
  Printf.printf
    "\n%d of %d queries in the quadratic (Theorem 1) regime; %d bounded \
     (Theorem 2).  (%.0fs)\n"
    quadratic (List.length series)
    (List.length series - quadratic)
    (Clock.now_s () -. t0)

let bench_census () =
  heading "Section 8.2: candidate optimal plan census";
  List.iter
    (fun n ->
      let policy = policy_of_figure n in
      Printf.printf "\nLayout: %s\n" (Qsens_catalog.Layout.policy_name policy);
      let t =
        Table_r.make
          ~header:
            [ "query"; "params"; "plans"; "complete"; "pairs"; "compl";
              "near"; "table"; "acc-path"; "temp"; "max-ratio" ]
      in
      let kind_count (census : Experiment.census) k =
        match List.assoc_opt k census.by_kind with Some n -> n | None -> 0
      in
      let total_compl = ref 0 and total_pairs = ref 0 in
      List.iter
        (fun (r : Experiment.report) ->
          let c = r.census in
          total_compl := !total_compl + c.complementary_pairs;
          total_pairs := !total_pairs + c.pairs;
          Table_r.add_row t
            [
              r.query_name;
              string_of_int r.active_dim;
              string_of_int (List.length r.candidates.plans);
              (if r.candidates.verified_complete then "yes" else "no");
              string_of_int c.pairs;
              string_of_int c.complementary_pairs;
              string_of_int c.near_pairs;
              string_of_int (kind_count c Complementary.Table_complementary);
              string_of_int
                (kind_count c Complementary.Access_path_complementary);
              string_of_int (kind_count c Complementary.Temp_complementary);
              Table_r.cell_f c.max_element_ratio;
            ])
        (reports policy);
      Table_r.print t;
      save_csv
        (Printf.sprintf "census-%s" (Qsens_catalog.Layout.policy_name policy))
        t;
      Printf.printf "total (near-)complementary pairs: %d of %d\n" !total_compl
        !total_pairs)
    [ 5; 7; 6 ]

let bench_lsq () =
  heading
    "Section 6.1.1: least-squares usage recovery through the narrow interface";
  let t =
    Table_r.make
      ~header:[ "query"; "layout"; "samples"; "fit-residual"; "validation-err" ]
  in
  List.iter
    (fun (qname, policy) ->
      let query = Qsens_tpch.Queries.find ~sf qname in
      let s = Experiment.setup ~schema ~policy query in
      let m = Projection.active_dim s.proj in
      let box =
        Qsens_geom.Box.around (Qsens_linalg.Vec.make m 1.) ~delta:100.
      in
      let _, narrow = Experiment.narrow_oracle s ~box in
      let expand = Experiment.expand_theta s in
      let signature =
        match
          Qsens_optimizer.Narrow.explain narrow
            ~costs:(expand (Qsens_linalg.Vec.make m 1.))
        with
        | Ok (signature, _) -> signature
        | Error _ -> assert false (* fault-free explain cannot fail *)
      in
      match Probe.estimate_usage ~narrow ~expand ~signature ~box () with
      | Error _ -> ()
      | Ok est ->
          let err =
            match Probe.validate ~narrow ~expand ~signature ~box est with
            | Ok e -> Printf.sprintf "%.3g%%" (100. *. e)
            | Error _ -> "-"
          in
          Table_r.add_row t
            [
              qname;
              Qsens_catalog.Layout.policy_name policy;
              string_of_int est.samples;
              Printf.sprintf "%.3g%%" (100. *. est.residual);
              err;
            ])
    (List.concat_map
       (fun q ->
         [ (q, Qsens_catalog.Layout.Same_device);
           (q, Qsens_catalog.Layout.Per_table_devices) ])
       [ "Q3"; "Q9"; "Q14"; "Q19"; "Q20" ]);
  Table_r.print t;
  print_endline "(the paper reports discrepancies below one percent)"

let bench_bounds () =
  heading "Theorem 1 tightness (Example 1) and Example 2";
  let t = Table_r.make ~header:[ "delta"; "worst T_rel(a,b)"; "delta^2" ] in
  List.iter
    (fun delta ->
      let box = Qsens_geom.Box.around [| 1.; 1. |] ~delta in
      let r, _ =
        Qsens_geom.Fractional.max_ratio ~num:[| 1.; 0. |] ~den:[| 0.; 1. |] box
      in
      Table_r.add_row t
        [ Table_r.cell_f delta; Table_r.cell_f r;
          Table_r.cell_f (delta *. delta) ])
    [ 1.; 10.; 100.; 1000. ];
  Table_r.print t;
  print_endline
    "\nExample 2 (chain join T1-T2-T3): see examples/chain_join.ml for the\n\
     full reproduction of the 10^4 usage-ratio argument."

let bench_diagram () =
  heading "Plan diagram: regions of influence over a 2-D cost slice (Q14)";
  let query = Qsens_tpch.Queries.find ~sf "Q14" in
  let policy = Qsens_catalog.Layout.Per_table_and_index_devices in
  let s = Experiment.setup ~schema ~policy query in
  let names = Qsens_cost.Groups.names s.groups in
  let active = Projection.active s.proj in
  let dim_of target =
    let rec find k =
      if k >= Array.length active then failwith ("no dim " ^ target)
      else if names.(active.(k)) = target then k
      else find (k + 1)
    in
    find 0
  in
  let oracle = Experiment.white_box_oracle s in
  let d =
    Plan_diagram.compute ~grid:28 ~oracle ~plans:[]
      ~dim_x:(dim_of "dev:tbl:lineitem")
      ~dim_y:(dim_of "dev:idx:lineitem")
      ~delta:1000. ()
  in
  Printf.printf "x: dev:tbl:lineitem, y: dev:idx:lineitem
";
  print_string (Plan_diagram.render d);
  Printf.printf
    "convexity violations (Observation 3 predicts 0 up to mesh ties): %d
"
    (Plan_diagram.convexity_violations d)

let bench_monte () =
  heading
    "Worst case versus distribution: sampled GTC over the feasible region";
  let policy = Qsens_catalog.Layout.Per_table_and_index_devices in
  let t =
    Table_r.make
      ~header:
        [ "query"; "delta"; "median"; "p90"; "p99"; "sampled max";
          "worst case"; "still-optimal" ]
  in
  List.iter
    (fun (qname, delta) ->
      let query = Qsens_tpch.Queries.find ~sf qname in
      let s = Experiment.setup ~schema ~policy query in
      let r =
        Experiment.run ~deltas:[ 1.; delta ] ~max_probes:800 s
      in
      let plans =
        Array.of_list
          (List.map (fun p -> p.Candidates.eff) r.candidates.plans)
      in
      let initial = r.candidates.initial.Candidates.eff in
      let m =
        Monte_carlo.gtc_distribution ~plans ~initial ~delta ()
      in
      let wc = (List.hd (List.rev r.curve)).Worst_case.gtc in
      Table_r.add_row t
        [ qname; Table_r.cell_f delta; Table_r.cell_f m.p50;
          Table_r.cell_f m.p90; Table_r.cell_f m.p99;
          Table_r.cell_f m.max_seen; Table_r.cell_f wc;
          Printf.sprintf "%.0f%%" (100. *. m.still_optimal) ])
    [ ("Q14", 100.); ("Q19", 100.); ("Q20", 100.); ("Q9", 100.) ];
  Table_r.print t;
  print_endline
    "(the worst case needs several parameters wrong in coordinated
     directions; typical errors cost far less)"

let bench_adaptive () =
  heading "Autonomic re-optimization policies over a cost-drift trace (Q9)";
  let policy = Qsens_catalog.Layout.Per_table_and_index_devices in
  let query = Qsens_tpch.Queries.find ~sf "Q9" in
  let s = Experiment.setup ~schema ~policy query in
  let r = Experiment.run ~deltas:[ 1.; 100. ] ~max_probes:800 s in
  let plans =
    Array.of_list (List.map (fun p -> p.Candidates.eff) r.candidates.plans)
  in
  let trace =
    Adaptive.drift_trace ~dim:r.active_dim ~horizon:2000 ()
  in
  let outcomes =
    Adaptive.compare_policies ~plans ~trace
      [ Adaptive.Never; Adaptive.Periodic 100; Adaptive.Periodic 10;
        Adaptive.Threshold 2.; Adaptive.Threshold 1.2; Adaptive.Always ]
  in
  let t =
    Table_r.make
      ~header:[ "policy"; "regret vs always"; "re-optimizations";
                "worst step GTC" ]
  in
  List.iter
    (fun (o : Adaptive.outcome) ->
      Table_r.add_row t
        [ Adaptive.policy_name o.policy;
          Printf.sprintf "%.3fx" o.regret;
          string_of_int o.reoptimizations;
          Table_r.cell_f o.worst_step_gtc ])
    outcomes;
  Table_r.print t;
  print_endline
    "(the GTC-threshold monitor costs a couple of dot products per step,
     no optimizer calls, and captures nearly all of always-reoptimize)"

let bench_ablation () =
  heading "Ablation: sensitivity versus join-graph topology";
  let t =
    Table_r.make
      ~header:[ "topology"; "tables"; "params"; "plans";
                "gtc(delta=100)"; "regime" ]
  in
  List.iter
    (fun (topo, tables) ->
      let spec = Qsens_workload.Synthetic.default topo ~tables in
      let wschema, query = Qsens_workload.Synthetic.generate spec in
      let s =
        Experiment.setup ~schema:wschema
          ~policy:Qsens_catalog.Layout.Per_table_and_index_devices query
      in
      let r =
        Experiment.run ~deltas:[ 1.; 10.; 100. ] ~max_probes:700 s
      in
      let last = List.hd (List.rev r.curve) in
      let regime =
        match Worst_case.asymptote r.curve with
        | `Bounded _ -> "bounded"
        | `Quadratic _ -> "quadratic"
      in
      Table_r.add_row t
        [ Qsens_workload.Synthetic.topology_name topo;
          string_of_int tables; string_of_int r.active_dim;
          string_of_int (List.length r.candidates.plans);
          Table_r.cell_f last.Worst_case.gtc; regime ])
    (List.concat_map
       (fun topo -> [ (topo, 4); (topo, 6) ])
       Qsens_workload.Synthetic.all_topologies);
  Table_r.print t;

  heading "Ablation: index set (full versus primary keys only), Q8, Fig-6 layout";
  let t = Table_r.make ~header:[ "index set"; "plans"; "gtc(delta=100)" ] in
  List.iter
    (fun (label, sch) ->
      let query = Qsens_tpch.Queries.find ~sf "Q8" in
      let s =
        Experiment.setup ~schema:sch
          ~policy:Qsens_catalog.Layout.Per_table_and_index_devices query
      in
      let r = Experiment.run ~deltas:[ 1.; 10.; 100. ] ~max_probes:700 s in
      let last = List.hd (List.rev r.curve) in
      Table_r.add_row t
        [ label; string_of_int (List.length r.candidates.plans);
          Table_r.cell_f last.Worst_case.gtc ])
    [ ("full (pk + fk + date)", schema);
      ("primary keys only", Qsens_tpch.Spec.schema_primary_only ~sf) ];
  Table_r.print t;

  heading "Ablation: sort-heap size (temp-complementary plans), Q3, Fig-6 layout";
  let t =
    Table_r.make ~header:[ "sort heap (pages)"; "plans"; "temp pairs";
                           "gtc(delta=100)" ]
  in
  List.iter
    (fun heap ->
      let query = Qsens_tpch.Queries.find ~sf "Q3" in
      let s =
        Experiment.setup ~sort_heap_pages:heap ~schema
          ~policy:Qsens_catalog.Layout.Per_table_and_index_devices query
      in
      let r = Experiment.run ~deltas:[ 1.; 10.; 100. ] ~max_probes:700 s in
      let last = List.hd (List.rev r.curve) in
      let temp =
        match
          List.assoc_opt Complementary.Temp_complementary r.census.by_kind
        with
        | Some n -> n
        | None -> 0
      in
      Table_r.add_row t
        [ Table_r.cell_f heap;
          string_of_int (List.length r.candidates.plans);
          string_of_int temp; Table_r.cell_f last.Worst_case.gtc ])
    [ 2_000.; 128_000.; 2_000_000. ];
  Table_r.print t;

  heading "Ablation: bushy-join enumeration cap, Q8 at the estimated costs";
  let env =
    Qsens_plan.Env.make ~schema ~policy:Qsens_catalog.Layout.Same_device ()
  in
  let costs = Qsens_cost.Defaults.base_costs env.Qsens_plan.Env.space in
  let q8 = Qsens_tpch.Queries.find ~sf "Q8" in
  let t =
    Table_r.make ~header:[ "max bushy side"; "plan cost"; "time (ms)" ]
  in
  List.iter
    (fun cap ->
      let t0 = Clock.now_s () in
      let r = Qsens_optimizer.Optimizer.optimize ~max_bushy_side:cap env q8 ~costs in
      let dt = (Clock.now_s () -. t0) *. 1000. in
      Table_r.add_row t
        [ string_of_int cap; Table_r.cell_f r.total_cost;
          Printf.sprintf "%.1f" dt ])
    [ 1; 2; 4; 8 ];
  Table_r.print t

let bench_robust () =
  heading
    "Robust plan choice: minimax worst-case GTC versus the nominal optimum      (delta = 100, Fig-6 layout)";
  let t =
    Table_r.make
      ~header:
        [ "query"; "nominal wc-GTC"; "minimax wc-GTC"; "improvement";
          "minimax nominal penalty" ]
  in
  List.iter
    (fun (r : Experiment.report) ->
      let plans =
        Array.of_list
          (List.map (fun p -> p.Candidates.eff) r.candidates.plans)
      in
      if Array.length plans > 1 then begin
        let nominal_choice = Robust.nominal ~plans in
        let nominal_scored =
          Robust.evaluate ~plans ~index:nominal_choice.Robust.index ~delta:100.
        in
        let mm = Robust.minimax ~plans ~delta:100. in
        Table_r.add_row t
          [
            r.query_name;
            Table_r.cell_f nominal_scored.Robust.worst_gtc;
            Table_r.cell_f mm.Robust.worst_gtc;
            Printf.sprintf "%.1fx"
              (nominal_scored.Robust.worst_gtc /. mm.Robust.worst_gtc);
            Printf.sprintf "%.3fx" mm.Robust.nominal_penalty;
          ]
      end)
    (reports (policy_of_figure 6));
  Table_r.print t;
  print_endline
    "(the minimax plan trades a little at the estimated costs for orders
     of magnitude in the corners of the feasible region)"

(* Selection across the delta axis: the regret the classic choice is
   exposed to versus what minimax locks in, per Fig-6 query.  The table
   shows delta = 100; the JSON artifact records the whole sweep. *)
let bench_select () =
  heading
    "Plan selection: least-expected-cost and minimax regret versus classic     (Fig-6 layout)";
  let deltas = [ sqrt 10.; 10.; 100.; 1000. ] in
  let show = 100. in
  let t =
    Table_r.make
      ~header:
        [ "query"; "dim"; "plans"; "classic regret"; "minimax regret";
          "improvement" ]
  in
  let rows = ref [] in
  List.iter
    (fun (r : Experiment.report) ->
      let plans =
        Array.of_list
          (List.map (fun p -> p.Candidates.eff) r.candidates.plans)
      in
      if Array.length plans > 1 then begin
        let points, path = Select.curve ~deltas ~plans () in
        let dim = Qsens_linalg.Vec.dim plans.(0) in
        rows := (r.query_name, dim, Array.length plans, path, points) :: !rows;
        match
          List.find_opt (fun (p : Select.point) -> p.Select.delta = show) points
        with
        | None -> ()
        | Some p ->
            let c = p.Select.regret.(p.Select.classic) in
            let m = p.Select.regret.(p.Select.minimax) in
            Table_r.add_row t
              [
                r.query_name; string_of_int dim;
                string_of_int (Array.length plans); Table_r.cell_f c;
                Table_r.cell_f m;
                (if p.Select.classic = p.Select.minimax then "-"
                 else Printf.sprintf "%.2fx" (c /. m));
              ]
      end)
    (reports (policy_of_figure 6));
  Table_r.print t;
  print_endline
    "(worst-case regret at delta = 100; \"-\" marks queries where minimax\n\
    \ keeps the classic plan — LEC always does over the symmetric box)";
  let rows = List.rev !rows in
  let path = Filename.concat (results_dir ()) "BENCH_select.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"layout\": \"per-table-and-index\",\n  \"queries\": [\n";
  List.iteri
    (fun i (query, dim, np, epath, points) ->
      Printf.fprintf oc
        "    {\"query\": %S, \"dim\": %d, \"plans\": %d, \"path\": %S, \
         \"points\": [" query dim np epath;
      List.iteri
        (fun j (p : Select.point) ->
          let c = p.Select.regret.(p.Select.classic) in
          let m = p.Select.regret.(p.Select.minimax) in
          Printf.fprintf oc
            "%s\n      {\"delta\": %.6g, \"classic\": %d, \"minimax\": %d, \
             \"classic_regret\": %.17g, \"minimax_regret\": %.17g, \
             \"improvement\": %.6g}"
            (if j = 0 then "" else ",")
            p.Select.delta p.Select.classic p.Select.minimax c m (c /. m))
        points;
      Printf.fprintf oc "]}%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n" path

let bench_calibration () =
  heading
    "Calibration: recover drifted costs from observed executions (Q9, Q3)";
  let t =
    Table_r.make
      ~header:
        [ "query"; "drifted dims"; "observations"; "key-dim error";
          "stale/oracle"; "recalibrated/oracle" ]
  in
  List.iter
    (fun qname ->
      let query = Qsens_tpch.Queries.find ~sf qname in
      let policy = Qsens_catalog.Layout.Per_table_and_index_devices in
      let s = Experiment.setup ~schema ~policy query in
      let m = Projection.active_dim s.proj in
      let names = Qsens_cost.Groups.names s.groups in
      let active = Projection.active s.proj in
      let truth = Qsens_linalg.Vec.make m 1. in
      let drifted = ref 0 in
      Array.iteri
        (fun k dim ->
          match names.(dim) with
          | "dev:idx:lineitem" -> truth.(k) <- 50.; incr drifted
          | "dev:dev:temp" -> truth.(k) <- 8.; incr drifted
          | _ -> ())
        active;
      let r = Experiment.run ~deltas:[ 1.; 50. ] ~max_probes:600 s in
      let st = Random.State.make [| 7 |] in
      let observations =
        List.map
          (fun (p : Candidates.plan) ->
            let noise = 1. +. (Random.State.float st 0.04 -. 0.02) in
            { Calibrate.usage = p.eff;
              elapsed = Qsens_linalg.Vec.dot p.eff truth *. noise })
          r.candidates.plans
      in
      match Calibrate.estimate_costs ~ridge:1e-6 observations with
      | Error _ -> ()
      | Ok theta ->
          let key_err = ref 0. in
          Array.iteri
            (fun k dim ->
              if names.(dim) = "dev:idx:lineitem" || names.(dim) = "dev:dev:temp"
              then
                key_err :=
                  Float.max !key_err
                    (Float.abs (theta.(k) -. truth.(k)) /. truth.(k)))
            active;
          let true_costs = Experiment.expand_theta s truth in
          let stale =
            Qsens_optimizer.Optimizer.optimize s.env query
              ~costs:(Experiment.expand_theta s (Qsens_linalg.Vec.make m 1.))
          in
          let recal =
            Qsens_optimizer.Optimizer.optimize s.env query
              ~costs:
                (Experiment.expand_theta s
                   (Qsens_linalg.Vec.map (fun x -> Float.max 0.01 x) theta))
          in
          let oracle =
            Qsens_optimizer.Optimizer.optimize s.env query ~costs:true_costs
          in
          let c plan = Qsens_optimizer.Optimizer.cost_of_plan plan true_costs in
          Table_r.add_row t
            [
              qname;
              string_of_int !drifted;
              string_of_int (List.length observations);
              Printf.sprintf "%.1f%%" (100. *. !key_err);
              Printf.sprintf "%.2fx" (c stale.plan /. c oracle.plan);
              Printf.sprintf "%.2fx" (c recal.plan /. c oracle.plan);
            ])
    [ "Q9"; "Q3" ];
  Table_r.print t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the analysis machinery. *)

let bench_timing () =
  heading "bechamel micro-benchmarks";
  let open Bechamel in
  let open Toolkit in
  let env_same =
    Qsens_plan.Env.make ~schema ~policy:Qsens_catalog.Layout.Same_device ()
  in
  let costs = Qsens_cost.Defaults.base_costs env_same.Qsens_plan.Env.space in
  let q3 = Qsens_tpch.Queries.find ~sf "Q3" in
  let q8 = Qsens_tpch.Queries.find ~sf "Q8" in
  let plans = [| [| 1.; 10.; 2. |]; [| 10.; 1.; 2. |]; [| 4.; 4.; 1. |] |] in
  let box3 = Qsens_geom.Box.around [| 1.; 1.; 1. |] ~delta:1000. in
  let mat =
    Qsens_linalg.Mat.init 12 6 (fun i j ->
        1. +. Float.of_int (((i * 31) + (j * 17) + (i * i * j)) mod 13))
  in
  let rhs = Qsens_linalg.Vec.init 12 (fun i -> Float.of_int (i + 1)) in
  let tests =
    Test.make_grouped ~name:"qsens"
      [
        Test.make ~name:"optimize-Q3" (Staged.stage (fun () ->
             ignore (Qsens_optimizer.Optimizer.optimize env_same q3 ~costs)));
        Test.make ~name:"optimize-Q8" (Staged.stage (fun () ->
             ignore (Qsens_optimizer.Optimizer.optimize env_same q8 ~costs)));
        Test.make ~name:"worst-case-gtc" (Staged.stage (fun () ->
             ignore (Worst_case.gtc_at_full ~plans ~initial:plans.(0) 1000.)));
        Test.make ~name:"least-squares-12x6" (Staged.stage (fun () ->
             ignore (Qsens_linalg.Mat.least_squares mat rhs)));
        Test.make ~name:"simplex-feasibility" (Staged.stage (fun () ->
             ignore
               (Qsens_geom.Simplex.feasible_in_box box3
                  [ Qsens_geom.Halfspace.make [| 1.; -1.; 0. |] 0. ])));
        Test.make ~name:"region-vertices" (Staged.stage (fun () ->
             ignore
               (Qsens_geom.Region.vertices
                  (Qsens_geom.Region.of_plans ~plans ~index:0 box3))));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let t = Table_r.make ~header:[ "operation"; "time per run" ] in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Table_r.add_row t [ name; pretty ])
    rows;
  Table_r.print t

(* ------------------------------------------------------------------ *)
(* Parallel sweep: the two hot analysis workloads timed sequentially
   and under an N-domain pool.  Parallel output is compared for exact
   equality with the sequential output before any speedup is
   reported. *)

module Pool = Qsens_parallel.Pool

(* Pool sizes to sweep; overridden by --domains N on the command line. *)
let domain_counts = ref [ 2; 4 ]

(* Best-of-repeats is the honest latency estimate (least scheduler
   noise); the mean is reported alongside so one lucky run cannot carry
   a speedup claim on its own. *)
let time_best ~repeats f =
  let best = ref infinity in
  let sum = ref 0. in
  let result = ref None in
  for _ = 1 to repeats do
    let t0 = Clock.now_s () in
    let r = f () in
    let dt = Clock.now_s () -. t0 in
    if dt < !best then best := dt;
    sum := !sum +. dt;
    result := Some r
  done;
  (Option.get !result, !best, !sum /. Float.of_int repeats)

(* A pool wider than the hardware cannot measure real parallel speedup —
   its domains time-share the CPUs.  Such rows are flagged rather than
   silently reported as if the speedup were genuine. *)
let oversubscribed domains = domains > Domain.recommended_domain_count ()

(* --chunk: also sweep the chunk granularity of the per-delta loop. *)
let chunk_sweep_on = ref false

(* --force: overwrite a committed multi-CPU BENCH_parallel.json even
   from a single-CPU run (normally refused — see bench_parallel). *)
let force_overwrite = ref false

(* Honesty check on the artifact being replaced: a committed
   BENCH_parallel.json whose every speedup came from a single hardware
   CPU is time-sharing noise.  Scan it for a ["cpus_online": 1] field
   (top-level or per-workload) before overwriting. *)
let json_records_single_cpu path =
  Sys.file_exists path
  &&
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let key = "\"cpus_online\":" in
  let klen = String.length key in
  let single = ref false in
  for i = 0 to String.length s - klen do
    if String.equal (String.sub s i klen) key then begin
      let j = ref (i + klen) in
      while !j < String.length s && s.[!j] = ' ' do incr j done;
      let d = ref 0 in
      while
        !j + !d < String.length s
        && s.[!j + !d] >= '0'
        && s.[!j + !d] <= '9'
      do
        incr d
      done;
      if !d > 0 && int_of_string (String.sub s !j !d) = 1 then single := true
    end
  done;
  !single

let bench_parallel () =
  heading "Parallel sweep: domain-pool speedup on the hot analysis paths";
  let repeats = 3 in
  if Domain.recommended_domain_count () = 1 then
    print_endline
      "*** WARNING: a single hardware CPU is online — every speedup below \
       is domains time-sharing one core, not parallelism.  Do not commit \
       this run's BENCH_parallel.json. ***";
  (let prior = Filename.concat (results_dir ()) "BENCH_parallel.json" in
   if json_records_single_cpu prior then
     Printf.printf
       "*** WARNING: the existing %s was produced on a single CPU \
        (\"cpus_online\": 1) — its speedups are not parallel measurements. \
        ***\n"
       prior);
  let measure name ~seq ~par =
    (* cpus_online is recorded per workload, at measurement time: parts
       of a sweep can run under different CPU affinity (containers,
       taskset), and a single top-level count would launder that. *)
    let cpus = Domain.recommended_domain_count () in
    let seq_result, seq_t, seq_mean = time_best ~repeats seq in
    let rows =
      List.map
        (fun d ->
          Pool.with_pool ~domains:d (fun p ->
              let par_result, par_t, par_mean =
                time_best ~repeats (fun () -> par p)
              in
              if par_result <> seq_result then
                failwith (name ^ ": parallel result differs from sequential");
              (d, par_t, par_mean, seq_t /. par_t)))
        !domain_counts
    in
    (name, cpus, seq_t, seq_mean, rows)
  in
  let st = Random.State.make [| 11 |] in
  let random_plans ~dim ~count =
    Array.init count (fun _ ->
        Array.init dim (fun _ -> 0.1 +. Random.State.float st 9.9))
  in
  (* Full worst-case curves in six dimensions with twenty-four plans —
     plans x deltas independent linear-fractional programs, repeated so a
     single measurement is well above timer resolution. *)
  let plans6 = random_plans ~dim:6 ~count:24 in
  let curves = 100 in
  let repeat_curve pool =
    List.init curves (fun _ ->
        Worst_case.curve ?pool ~plans:plans6 ~initial:plans6.(0) ())
  in
  let results =
    [
      measure
        (Printf.sprintf "worst-case-curve dim=6 plans=24 x%d" curves)
        ~seq:(fun () -> repeat_curve None)
        ~par:(fun p -> repeat_curve (Some p));
    ]
  in
  let t =
    Table_r.make
      ~header:[ "workload"; "sequential (s)"; "domains"; "parallel (s)";
                "mean (s)"; "speedup" ]
  in
  List.iter
    (fun (name, _cpus, seq_t, _seq_mean, rows) ->
      List.iter
        (fun (d, par_t, par_mean, speedup) ->
          Table_r.add_row t
            [ name; Printf.sprintf "%.3f" seq_t; string_of_int d;
              Printf.sprintf "%.3f" par_t; Printf.sprintf "%.3f" par_mean;
              Printf.sprintf "%.2fx%s" speedup
                (if oversubscribed d then " (oversubscribed)" else "") ])
        rows)
    results;
  Table_r.print t;
  Printf.printf
    "(results checked identical to sequential; %d hardware CPUs online; \
     best-of-%d with means alongside)\n"
    (Domain.recommended_domain_count ())
    repeats;
  (* Chunk-granularity sweep: the same pruned high-dimension curve loop,
     chunked coarser and finer than the pool default, to surface
     load-imbalance (per-delta search costs vary wildly) versus dispatch
     overhead. *)
  let chunk_rows =
    if not !chunk_sweep_on then []
    else begin
      let dim = 16 and count = 24 and replicas = 8 in
      let st = Random.State.make [| 11; dim |] in
      let plans =
        Array.init count (fun _ ->
            Array.init dim (fun _ -> 0.1 +. Random.State.float st 9.9))
      in
      let bnb =
        Sweep.Bnb.build ~plans ~initial:plans.(0)
          ~center:(Qsens_linalg.Vec.make dim 1.)
          ()
      in
      let darr =
        Array.concat
          (List.init replicas (fun _ ->
               Array.of_list Worst_case.default_deltas))
      in
      let nd = Array.length darr in
      let out = Array.make nd nan in
      let fill lo hi =
        for i = lo to hi - 1 do
          (* qsens-lint: disable=P001 — chunks cover disjoint index ranges *)
          out.(i) <- fst (Sweep.Bnb.eval bnb ~delta:darr.(i))
        done
      in
      fill 0 nd;
      let reference = Array.copy out in
      let _, seq_t, _ = time_best ~repeats (fun () -> fill 0 nd) in
      let rows =
        List.concat_map
          (fun d ->
            Pool.with_pool ~domains:d (fun p ->
                (* [None] is the auto-tuned default (Pool.auto_chunks):
                   the sweep must exercise the granularity users get
                   without a ~chunks argument, so regressions in the
                   default show up next to the explicit points. *)
                List.map
                  (fun mult ->
                    let chunks =
                      match mult with
                      | None -> Pool.auto_chunks ~domains:d ~n:nd
                      | Some m -> m * d
                    in
                    let _, par_t, par_mean =
                      time_best ~repeats (fun () ->
                          match mult with
                          | None -> Pool.parallel_for_chunked p ~n:nd fill
                          | Some _ ->
                              Pool.parallel_for_chunked ~chunks p ~n:nd fill)
                    in
                    if out <> reference then
                      failwith
                        "chunk sweep: parallel result differs from sequential";
                    (d, mult, chunks, par_t, par_mean, seq_t /. par_t))
                  [ None; Some 1; Some 2; Some 4; Some 8 ]))
          !domain_counts
      in
      let tc =
        Table_r.make
          ~header:[ "domains"; "chunks"; "parallel (s)"; "mean (s)"; "speedup" ]
      in
      List.iter
        (fun (d, mult, chunks, par_t, par_mean, speedup) ->
          Table_r.add_row tc
            [ string_of_int d;
              string_of_int chunks
              ^ (if mult = None then " (default)" else "");
              Printf.sprintf "%.3f" par_t; Printf.sprintf "%.3f" par_mean;
              Printf.sprintf "%.2fx%s" speedup
                (if oversubscribed d then " (oversubscribed)" else "") ])
        rows;
      Printf.printf
        "\nchunk sweep: pruned worst-case evals, dim=%d plans=%d, %d grid \
         points (sequential %.3f s)\n"
        dim count nd seq_t;
      Table_r.print tc;
      rows
    end
  in
  let dir = results_dir () in
  let path = Filename.concat dir "BENCH_parallel.json" in
  (* A single-CPU run must not clobber a committed artifact whose
     speedups were measured on real parallel hardware: the new file
     would replace genuine measurements with time-sharing noise.  The
     refusal is asymmetric — a single-CPU artifact (detected by its
     recorded "cpus_online": 1) may always be replaced. *)
  if
    Domain.recommended_domain_count () = 1
    && Sys.file_exists path
    && (not (json_records_single_cpu path))
    && not !force_overwrite
  then
    Printf.printf
      "*** refusing to overwrite %s: it records a multi-CPU run and only \
       one hardware CPU is online — this run's speedups are time-sharing \
       noise.  Pass --force to overwrite anyway. ***\n"
      path
  else begin
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"repeats\": %d,\n  \"cpus_online\": %d,\n  \"workloads\": [\n"
    repeats
    (Domain.recommended_domain_count ());
  List.iteri
    (fun i (name, cpus, seq_t, seq_mean, rows) ->
      Printf.fprintf oc
        "    {\n      \"name\": %S,\n      \"cpus_online\": %d,\n      \
         \"sequential_s\": %.6f,\n      \
         \"sequential_mean_s\": %.6f,\n      \"runs\": [\n"
        name cpus seq_t seq_mean;
      List.iteri
        (fun j (d, par_t, par_mean, speedup) ->
          Printf.fprintf oc
            "        { \"domains\": %d, \"parallel_s\": %.6f, \"mean_s\": \
             %.6f, \"speedup\": %.4f, \"oversubscribed\": %b }%s\n"
            d par_t par_mean speedup (oversubscribed d)
            (if j = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "      ]\n    }%s\n"
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "  ]";
  if chunk_rows <> [] then begin
    output_string oc ",\n  \"chunk_sweep\": [\n";
    List.iteri
      (fun i (d, mult, chunks, par_t, par_mean, speedup) ->
        Printf.fprintf oc
          "    { \"domains\": %d, \"chunks\": %d, \"default\": %b, \
           \"parallel_s\": %.6f, \"mean_s\": %.6f, \"speedup\": %.4f, \
           \"oversubscribed\": %b }%s\n"
          d chunks (mult = None) par_t par_mean speedup (oversubscribed d)
          (if i = List.length chunk_rows - 1 then "" else ","))
      chunk_rows;
    output_string oc "  ]"
  end;
  (* With --metrics on, embed this part's counter block (device, pool,
     LP, ... counters accumulated so far) in the JSON artifact. *)
  if Obs.recording () then
    Printf.fprintf oc ",\n  \"counters\": %s\n}\n" (Obs.metrics_json ())
  else output_string oc "\n}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n" path
  end

(* ------------------------------------------------------------------ *)
(* Sweep kernel benchmark: the separable-table curve (Worst_case.curve)
   against the per-delta table rebuild (Qsens_oracle.curve_naive) and the
   pre-kernel linear-fractional sweep (Worst_case.curve_fractional).  The
   kernel output is checked bit-identical to the rebuild before any
   speedup is reported; the legacy path converges by bisection, so it is
   only required to agree within a relative tolerance. *)

(* --smoke shrinks the problem so CI can run this part in well under a
   second; the committed BENCH_sweep.json always comes from a full-size
   run. *)
let sweep_smoke = ref false

let bench_sweep () =
  heading "Sweep kernel: separable tables versus per-delta evaluation";
  let dim, plan_count, curves, repeats =
    if !sweep_smoke then (3, 6, 2, 2) else (6, 24, 20, 3)
  in
  let st = Random.State.make [| 11 |] in
  let plans =
    Array.init plan_count (fun _ ->
        Array.init dim (fun _ -> 0.1 +. Random.State.float st 9.9))
  in
  let initial = plans.(0) in
  let deltas = Worst_case.default_deltas in
  let time_curves f =
    time_best ~repeats (fun () -> List.init curves (fun _ -> f ()))
  in
  let legacy, legacy_t, legacy_mean =
    time_curves (fun () ->
        Worst_case.curve_fractional ~deltas ~plans ~initial ())
  in
  let naive, naive_t, naive_mean =
    time_curves (fun () -> Qsens_oracle.curve_naive ~deltas ~plans ~initial ())
  in
  let kernel, kernel_t, kernel_mean =
    time_curves (fun () -> Worst_case.curve ~deltas ~plans ~initial ())
  in
  let bits = Int64.bits_of_float in
  List.iter2
    (fun ck cn ->
      List.iter2
        (fun (p : Worst_case.point) (q : Worst_case.point) ->
          if bits p.gtc <> bits q.gtc then
            failwith
              (Printf.sprintf
                 "sweep: kernel gtc %h differs from rebuild %h at delta %g"
                 p.gtc q.gtc p.delta))
        ck cn)
    kernel naive;
  List.iter2
    (fun ck cl ->
      List.iter2
        (fun (p : Worst_case.point) (q : Worst_case.point) ->
          let tol = 1e-6 *. Float.max 1. (Float.abs q.gtc) in
          if Float.abs (p.gtc -. q.gtc) > tol then
            failwith
              (Printf.sprintf
                 "sweep: kernel gtc %.17g disagrees with legacy %.17g at \
                  delta %g"
                 p.gtc q.gtc p.delta))
        ck cl)
    kernel legacy;
  let grid = List.length deltas in
  let paths =
    [ ("legacy-fractional", legacy_t, legacy_mean);
      ("naive-rebuild", naive_t, naive_mean);
      ("kernel", kernel_t, kernel_mean) ]
  in
  let t =
    Table_r.make
      ~header:[ "path"; "best (s)"; "mean (s)"; "speedup vs legacy" ]
  in
  List.iter
    (fun (name, best, mean) ->
      Table_r.add_row t
        [ name; Printf.sprintf "%.4f" best; Printf.sprintf "%.4f" mean;
          Printf.sprintf "%.2fx" (legacy_t /. best) ])
    paths;
  Table_r.print t;
  Printf.printf
    "(dim=%d plans=%d grid=%d curves/run=%d best-of-%d; kernel checked \
     bit-identical to the rebuild, legacy within 1e-6 relative)\n"
    dim plan_count grid curves repeats;
  let path = Filename.concat (results_dir ()) "BENCH_sweep.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"dim\": %d,\n  \"plans\": %d,\n  \"grid_points\": %d,\n  \
     \"curves_per_run\": %d,\n  \"repeats\": %d,\n  \"smoke\": %b,\n  \
     \"paths\": [\n"
    dim plan_count grid curves repeats !sweep_smoke;
  List.iteri
    (fun i (name, best, mean) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"best_s\": %.6f, \"mean_s\": %.6f }%s\n" name
        best mean
        (if i = List.length paths - 1 then "" else ","))
    paths;
  Printf.fprintf oc
    "  ],\n  \"speedup\": %.4f,\n  \"speedup_vs_rebuild\": %.4f\n}\n"
    (legacy_t /. kernel_t)
    (naive_t /. kernel_t);
  close_out oc;
  Printf.printf "[wrote %s]\n" path

(* ------------------------------------------------------------------ *)
(* High-dimension worst case: the branch-and-bound vertex search versus
   the 2^dim exhaustive frontier.  Node counts come straight from
   Sweep.Bnb.eval_with_stats — honest even without --metrics.  --smoke
   shrinks the sweep for CI and adds a dim-8 bitwise cross-check of the
   forced branch-and-bound curve (Qsens_oracle.curve_pruned) against the
   exhaustive kernel. *)

let bench_highdim () =
  heading "High-dimension worst case: branch-and-bound vertex search";
  let repeats = if !sweep_smoke then 2 else 3 in
  let dims = if !sweep_smoke then [ 18 ] else [ 12; 18; 24 ] in
  let plan_count = if !sweep_smoke then 6 else 24 in
  let deltas = Worst_case.default_deltas in
  let grid = List.length deltas in
  let random_plans dim =
    let st = Random.State.make [| 11; dim |] in
    Array.init plan_count (fun _ ->
        Array.init dim (fun _ -> 0.1 +. Random.State.float st 9.9))
  in
  if !sweep_smoke then begin
    (* Below the exhaustive gate the pruned path must reproduce the
       kernel bits exactly — gtc and witness vertices. *)
    let st = Random.State.make [| 11; 8 |] in
    let plans =
      Array.init 8 (fun _ ->
          Array.init 8 (fun _ -> 0.1 +. Random.State.float st 9.9))
    in
    let initial = plans.(0) in
    let reference = Worst_case.curve ~deltas ~plans ~initial () in
    let pruned = Qsens_oracle.curve_pruned ~deltas ~plans ~initial () in
    let bits = Int64.bits_of_float in
    List.iter2
      (fun (p : Worst_case.point) (q : Worst_case.point) ->
        if
          bits p.gtc <> bits q.gtc
          || Array.length p.witness <> Array.length q.witness
          || not (Array.for_all2 (fun a b -> bits a = bits b) p.witness q.witness)
        then
          failwith
            (Printf.sprintf
               "highdim: pruned curve differs from the exhaustive kernel at \
                delta %g"
               q.delta))
      pruned reference;
    print_endline
      "dim-8 cross-check: forced branch-and-bound curve bit-identical to \
       the exhaustive kernel (gtc and witnesses)"
  end;
  let rows =
    List.map
      (fun dim ->
        let plans = random_plans dim in
        let initial = plans.(0) in
        let center = Qsens_linalg.Vec.make dim 1. in
        let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
        let kept = Array.length (Sweep.Bnb.kept bnb) in
        let eval_all () =
          List.fold_left
            (fun (nodes, leaves) delta ->
              let _, (n, l) = Sweep.Bnb.eval_with_stats bnb ~delta in
              (nodes + n, leaves + l))
            (0, 0) deltas
        in
        let (nodes, leaves), best, mean = time_best ~repeats eval_all in
        let _, curve_best, _ =
          time_best ~repeats (fun () ->
              Qsens_oracle.curve_pruned ~deltas ~plans ~initial ())
        in
        (* What exhaustive enumeration would evaluate for the same
           grid: every pattern of every kept plan at every delta. *)
        let exhaustive = kept * (1 lsl dim) * grid in
        (dim, kept, nodes, leaves, exhaustive, best, mean, curve_best))
      dims
  in
  let t =
    Table_r.make
      ~header:[ "dim"; "kept"; "nodes"; "leaves"; "exhaustive"; "visited";
                "eval best (s)"; "curve best (s)" ]
  in
  List.iter
    (fun (dim, kept, nodes, leaves, exhaustive, best, _mean, curve_best) ->
      Table_r.add_row t
        [ string_of_int dim; string_of_int kept; string_of_int nodes;
          string_of_int leaves; string_of_int exhaustive;
          Printf.sprintf "%.5f%%"
            (100. *. Float.of_int nodes /. Float.of_int exhaustive);
          Printf.sprintf "%.4f" best; Printf.sprintf "%.4f" curve_best ])
    rows;
  Table_r.print t;
  Printf.printf
    "(plans=%d grid=%d best-of-%d, single-threaded; \"exhaustive\" is \
     kept_plans * 2^dim * grid leaves the gated path would evaluate)\n"
    plan_count grid repeats;
  let path = Filename.concat (results_dir ()) "BENCH_highdim.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"smoke\": %b,\n  \"plans\": %d,\n  \"grid_points\": %d,\n  \
     \"repeats\": %d,\n  \"dims\": [\n"
    !sweep_smoke plan_count grid repeats;
  List.iteri
    (fun i (dim, kept, nodes, leaves, exhaustive, best, mean, curve_best) ->
      Printf.fprintf oc
        "    { \"dim\": %d, \"kept_plans\": %d, \"nodes\": %d, \"leaves\": \
         %d, \"exhaustive_leaves\": %d, \"visited_fraction\": %.3e, \
         \"eval_best_s\": %.6f, \"eval_mean_s\": %.6f, \"curve_best_s\": \
         %.6f }%s\n"
        dim kept nodes leaves exhaustive
        (Float.of_int nodes /. Float.of_int exhaustive)
        best mean curve_best
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n" path

(* ------------------------------------------------------------------ *)
(* Unboxed-kernel benchmark: the incremental grid evaluator
   (Sweep.eval_grid), the node-pool branch-and-bound
   (Sweep.Bnb.eval ~scratch) and the optimizer's per-probe re-costing of
   a prepared plan space (Optimizer.best on Q8, same-device layout),
   each checked bitwise before it is timed — the grid against per-point
   eval, the warm-scratch search against a cold one (results and node
   counts), the optimizer against the memo DP (signature, usage and
   cost bits).

   Besides time, the part records allocation — minor and major words
   per grid point or probe, via Obs.measure_alloc — and gates on it: the
   grid path must allocate exactly zero minor words per point in steady
   state, the node-pool search and the optimizer no more than their
   ceilings below.  The gate runs at every size, so `--smoke` (CI)
   enforces it too. *)

(* Steady-state minor words per 17-point grid of the node-pool search
   (572.18 and 172.41 words per point), as measured when this absolute
   ceiling replaced a comparison against replicas of the seed-revision
   engines: the result pair and per-delta bookkeeping, nothing per
   node.  The gate fails on any increase. *)
let bnb_minor_words_per_grid ~smoke = if smoke then 2931 else 9727

(* Steady-state minor words per Q8 optimizer probe on a prepared plan
   space (23760.25 averaged over the 4 smoke probes, 26534.41 over the
   17 full ones), as measured when the prepared space replaced the memo
   DP, which allocated 79.7M words per call.  What remains is building
   the winning plan through the Node constructors and float boxing in
   the ~230 near-tie settlements per probe; the re-costing pass over the
   303k alternatives allocates nothing, so the ceiling does not grow with
   them.  The gate fails on any increase. *)
let optimizer_minor_words_per_probe ~smoke = if smoke then 23760 else 26534

(* Interleaved best-of: alternate the paths round-robin within every
   round and keep per-path minima, so thermal or scheduler drift over
   the run biases no path (back-to-back [time_best] repeats measure the
   machine's mood at two different times).  Returns (best, mean) pairs
   in seconds per single call of each thunk. *)
let interleaved ~rounds ~reps fs =
  let n = Array.length fs in
  Array.iter (fun f -> f ()) fs;
  let best = Array.make n infinity and sum = Array.make n 0. in
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Clock.now_s () in
        for _ = 1 to reps do
          f ()
        done;
        let dt = (Clock.now_s () -. t0) /. Float.of_int reps in
        if dt < best.(i) then best.(i) <- dt;
        sum.(i) <- sum.(i) +. dt)
      fs
  done;
  Array.init n (fun i -> (best.(i), sum.(i) /. Float.of_int rounds))

let bench_kernel () =
  heading "Unboxed kernels: incremental grid, node-pool search, optimizer";
  let curve_dim, bnb_dim, plan_count, rounds, reps =
    if !sweep_smoke then (8, 10, 8, 3, 2) else (12, 24, 24, 12, 2)
  in
  let deltas = Array.of_list Worst_case.default_deltas in
  let nd = Array.length deltas in
  let random_plans dim =
    let st = Random.State.make [| 11; dim |] in
    Array.init plan_count (fun _ ->
        Array.init dim (fun _ -> 0.1 +. Random.State.float st 9.9))
  in
  let bits = Int64.bits_of_float in
  (* --- workload 1: the full-grid curve, exhaustive tables --- *)
  let plans = random_plans curve_dim in
  let center = Qsens_linalg.Vec.make curve_dim 1. in
  let sweep = Sweep.build ~plans ~initial:plans.(0) ~center () in
  let gtc = Float.Array.make nd nan in
  let patterns = Array.make nd (-1) in
  let scratch = Sweep.Scratch.create () in
  (* Partially applied so the (Some scratch) closure environment is
     allocated once: the steady-state zero-allocation figure is the
     grid loop's, not the call protocol's. *)
  let grid = Sweep.eval_grid ~scratch sweep in
  let run_grid () = grid ~deltas ~gtc ~patterns in
  run_grid ();
  Array.iteri
    (fun i delta ->
      let v, p = Sweep.eval sweep ~delta in
      if bits v <> bits (Float.Array.get gtc i) || p <> patterns.(i) then
        failwith
          (Printf.sprintf
             "kernel curve: eval_grid differs from per-point eval at delta %g"
             delta))
    deltas;
  (* --- workload 2: branch-and-bound beyond the exhaustive gate --- *)
  let bplans = random_plans bnb_dim in
  let bcenter = Qsens_linalg.Vec.make bnb_dim 1. in
  let bnb =
    Sweep.Bnb.build ~plans:bplans ~initial:bplans.(0) ~center:bcenter ()
  in
  let bsc = Sweep.Bnb.Scratch.create () in
  let bgtc = Float.Array.make nd nan in
  let bpatterns = Array.make nd (-1) in
  let run_flat () =
    for i = 0 to nd - 1 do
      let v, p = Sweep.Bnb.eval ~scratch:bsc bnb ~delta:deltas.(i) in
      Float.Array.set bgtc i v;
      bpatterns.(i) <- p
    done
  in
  run_flat ();
  let total_nodes = ref 0 and total_leaves = ref 0 in
  Array.iteri
    (fun i delta ->
      let (v, p), (n, l) = Sweep.Bnb.eval_with_stats bnb ~delta in
      total_nodes := !total_nodes + n;
      total_leaves := !total_leaves + l;
      if bits v <> bits (Float.Array.get bgtc i) || p <> bpatterns.(i) then
        failwith
          (Printf.sprintf
             "kernel bnb: warm-scratch search differs from a cold one at \
              delta %g"
             delta))
    deltas;
  (* --- workload 3: re-costing Q8's prepared plan space --- *)
  let env =
    Qsens_plan.Env.make ~schema ~policy:Qsens_catalog.Layout.Same_device ()
  in
  let q8 = Qsens_tpch.Queries.find ~sf "Q8" in
  let prepared = Qsens_optimizer.Optimizer.prepare env q8 in
  let base = Qsens_cost.Defaults.base_costs env.Qsens_plan.Env.space in
  let ost = Random.State.make [| 8 |] in
  let probes =
    Array.init (if !sweep_smoke then 4 else nd) (fun i ->
        if i = 0 then base
        else
          Array.map
            (fun c -> c *. Float.pow 10. (Random.State.float ost 8. -. 4.))
            base)
  in
  let np = Array.length probes in
  let results = Array.make np None in
  let run_opt () =
    Array.iteri
      (fun i costs ->
        results.(i) <- Some (Qsens_optimizer.Optimizer.best prepared ~costs))
      probes
  in
  run_opt ();
  Array.iteri
    (fun i costs ->
      let (m : Qsens_optimizer.Optimizer.result) =
        Qsens_oracle.optimize_memo env q8 ~costs
      in
      match results.(i) with
      | Some (r : Qsens_optimizer.Optimizer.result)
        when r.signature = m.signature
             && bits r.total_cost = bits m.total_cost
             && Array.for_all2
                  (fun a b -> bits a = bits b)
                  r.plan.Qsens_plan.Node.usage m.plan.Qsens_plan.Node.usage ->
          ()
      | _ ->
          failwith
            (Printf.sprintf
               "kernel optimizer: Q8 probe %d differs from the memo DP" i))
    probes;
  let times = interleaved ~rounds ~reps [| run_grid; run_flat; run_opt |] in
  let curve_t, curve_mean = times.(0) and bnb_t, bnb_mean = times.(1) in
  let opt_t, opt_mean = times.(2) in
  let _, curve_minor, curve_major = Obs.measure_alloc ~n:nd run_grid in
  let _, bnb_minor, bnb_major = Obs.measure_alloc ~n:nd run_flat in
  let _, opt_minor, opt_major = Obs.measure_alloc ~n:np run_opt in
  let bnb_ceiling =
    Float.of_int (bnb_minor_words_per_grid ~smoke:!sweep_smoke)
    /. Float.of_int nd
  in
  (* --- report --- *)
  let t =
    Table_r.make
      ~header:[ "workload"; "path"; "best (ms)"; "mean (ms)"; "minor w/pt";
                "major w/pt"; "minor gate" ]
  in
  let row workload path best mean minor major gate =
    Table_r.add_row t
      [ workload; path;
        Printf.sprintf "%.3f" (best *. 1e3);
        Printf.sprintf "%.3f" (mean *. 1e3);
        Printf.sprintf "%.1f" minor; Printf.sprintf "%.1f" major;
        Printf.sprintf "%.2f" gate ]
  in
  row
    (Printf.sprintf "curve dim=%d plans=%d" curve_dim plan_count)
    "grid-kernel" curve_t curve_mean curve_minor curve_major 0.;
  row
    (Printf.sprintf "bnb dim=%d plans=%d" bnb_dim plan_count)
    "node-pool" bnb_t bnb_mean bnb_minor bnb_major bnb_ceiling;
  row
    (Printf.sprintf "optimizer Q8 same-device, %d probes" np)
    "prepared"
    (opt_t /. Float.of_int np)
    (opt_mean /. Float.of_int np)
    opt_minor opt_major
    (Float.of_int (optimizer_minor_words_per_probe ~smoke:!sweep_smoke));
  Table_r.print t;
  Printf.printf
    "(grid=%d interleaved best-of-%d x%d; grid kernel bit-identical to \
     per-point eval, warm node pool bit-identical to a cold one; %d \
     search nodes / %d leaves per bnb grid)\n"
    nd rounds reps !total_nodes !total_leaves;
  let path = Filename.concat (results_dir ()) "BENCH_kernel.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"smoke\": %b,\n  \"grid_points\": %d,\n  \"rounds\": %d,\n  \
     \"reps\": %d,\n"
    !sweep_smoke nd rounds reps;
  let emit name ~dim ~path ~best ~mean ~minor ~major ~gate ~extra ~last =
    Printf.fprintf oc
      "  %S: {\n    \"dim\": %d, \"plans\": %d,%s \"path\": %S,\n    \
       \"best_s\": %.6f, \"mean_s\": %.6f, \"minor_words_per_point\": %.2f, \
       \"major_words_per_point\": %.2f, \"minor_gate_per_point\": %.2f\n  \
       }%s\n"
      name dim plan_count extra path best mean minor major gate
      (if last then "" else ",")
  in
  emit "curve" ~dim:curve_dim ~path:"grid-kernel" ~best:curve_t
    ~mean:curve_mean ~minor:curve_minor ~major:curve_major ~gate:0. ~extra:""
    ~last:false;
  emit "bnb" ~dim:bnb_dim ~path:"node-pool" ~best:bnb_t ~mean:bnb_mean
    ~minor:bnb_minor ~major:bnb_major ~gate:bnb_ceiling
    ~extra:
      (Printf.sprintf " \"nodes\": %d, \"leaves\": %d," !total_nodes
         !total_leaves)
    ~last:false;
  Printf.fprintf oc
    "  \"optimizer\": {\n    \"query\": \"Q8\", \"layout\": \"same\", \"probes\": \
     %d, \"path\": \"prepared\",\n    \"best_s_per_probe\": %.6f, \
     \"mean_s_per_probe\": %.6f, \"minor_words_per_probe\": %.2f, \
     \"major_words_per_probe\": %.2f, \"minor_gate_per_probe\": %d\n  }\n"
    np (opt_t /. Float.of_int np)
    (opt_mean /. Float.of_int np)
    opt_minor opt_major
    (optimizer_minor_words_per_probe ~smoke:!sweep_smoke);
  output_string oc "}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n" path;
  (* Allocation gate (CI: `bench kernel --smoke`).  Both contracts are
     absolute: zero steady-state minor words per point on the grid path,
     and no more than the recorded ceiling on the search.
     measure_alloc clamps at zero, so the grid check is an equality;
     the search check compares whole words per grid, so the per-point
     rounding cannot blur it. *)
  if curve_minor > 0. then begin
    Printf.eprintf
      "kernel gate: grid path allocates %.2f minor words per point \
       (expected 0)\n"
      curve_minor;
    exit 1
  end;
  if
    Float.round (bnb_minor *. Float.of_int nd)
    > Float.of_int (bnb_minor_words_per_grid ~smoke:!sweep_smoke)
  then begin
    Printf.eprintf
      "kernel gate: node-pool search allocates %.2f minor words per point, \
       more than its ceiling of %.2f\n"
      bnb_minor bnb_ceiling;
    exit 1
  end;
  let opt_ceiling = optimizer_minor_words_per_probe ~smoke:!sweep_smoke in
  if Float.round opt_minor > Float.of_int opt_ceiling then begin
    Printf.eprintf
      "kernel gate: the optimizer allocates %.2f minor words per Q8 probe, \
       more than its ceiling of %d\n"
      opt_minor opt_ceiling;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let all_parts =
  [
    ("params", bench_params);
    ("fig5", fun () -> bench_figure 5);
    ("fig7", fun () -> bench_figure 7);
    ("fig6", fun () -> bench_figure 6);
    ("census", bench_census);
    ("lsq", bench_lsq);
    ("bounds", bench_bounds);
    ("diagram", bench_diagram);
    ("monte", bench_monte);
    ("adapt", bench_adaptive);
    ("robust", bench_robust);
    ("select", bench_select);
    ("calib", bench_calibration);
    ("ablation", bench_ablation);
    ("timing", bench_timing);
    ("parallel", bench_parallel);
    ("sweep", bench_sweep);
    ("highdim", bench_highdim);
    ("kernel", bench_kernel);
  ]

let usage () =
  Printf.printf
    "usage: bench [--domains N] [--metrics] [--smoke] [--chunk] [--force] \
     [part ...]\n\n";
  Printf.printf "parts (default: all):\n  %s\n\n"
    (String.concat " " (List.map fst all_parts));
  Printf.printf
    "options:\n\
    \  --domains N   pool size for the parallel sweep (implies part \
     'parallel')\n\
    \  --metrics     record observability counters per part (printed after \
     each\n\
    \                part and written to BENCH_metrics.json)\n\
    \  --smoke       shrink the 'sweep', 'highdim' and 'kernel' parts to \
     CI-smoke\n\
    \                sizes (highdim also cross-checks the pruned path \
     bitwise at\n\
    \                dim 8; kernel enforces its allocation gate at every \
     size)\n\
    \  --chunk       add a chunk-granularity sweep to the 'parallel' part\n\
    \                (includes the auto-tuned default alongside explicit \
     counts)\n\
    \  --force       let a single-CPU run overwrite a committed multi-CPU\n\
    \                BENCH_parallel.json (refused by default)\n\
    \  --help, -h    show this message\n"

(* Per-part observability: with --metrics, each part runs in a fresh
   recording session; its wall time lands in a gauge and its counter
   block is collected for BENCH_metrics.json.  Without the flag the
   instrumentation stays disabled (allocation-free) so timings are
   undisturbed. *)
let metrics_on = ref false
let part_blocks : (string * string) list ref = ref []

let run_part part f =
  if not !metrics_on then f ()
  else begin
    Obs.start ();
    let t0 = Clock.now_s () in
    f ();
    let dt = Clock.now_s () -. t0 in
    Obs.set
      (Obs.gauge ~help:"wall seconds for this bench part"
         (Printf.sprintf "bench.part.%s.seconds" part))
      dt;
    Obs.stop ();
    part_blocks := (part, Obs.metrics_json ()) :: !part_blocks;
    Printf.printf "\nmetrics for part %s:\n" part;
    Qsens_report.Metrics.print ()
  end

let write_metrics_json () =
  if !metrics_on then begin
    let path = Filename.concat (results_dir ()) "BENCH_metrics.json" in
    let oc = open_out path in
    let blocks = List.rev !part_blocks in
    output_string oc "{\n";
    List.iteri
      (fun i (part, block) ->
        Printf.fprintf oc "  %S: %s%s\n" part block
          (if i = List.length blocks - 1 then "" else ","))
      blocks;
    output_string oc "}\n";
    close_out oc;
    Printf.printf "[wrote %s]\n" path
  end

let () =
  (* Strip `--domains N` anywhere in argv; the remaining words name
     parts.  With --domains and no part, run just the parallel sweep. *)
  let saw_domains = ref false in
  let rec strip = function
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | "--domains" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 ->
            saw_domains := true;
            domain_counts := [ d ];
            strip rest
        | _ ->
            prerr_endline "--domains expects a positive integer";
            exit 2)
    | "--metrics" :: rest ->
        metrics_on := true;
        strip rest
    | "--smoke" :: rest ->
        sweep_smoke := true;
        strip rest
    | "--chunk" :: rest ->
        chunk_sweep_on := true;
        strip rest
    | "--force" :: rest ->
        force_overwrite := true;
        strip rest
    | x :: rest -> x :: strip rest
    | [] -> []
  in
  let requested =
    match strip (List.tl (Array.to_list Sys.argv)) with
    | [] when !saw_domains -> [ "parallel" ]
    | [] -> List.map fst all_parts
    | parts -> parts
  in
  let t0 = Clock.now_s () in
  List.iter
    (fun part ->
      match List.assoc_opt part all_parts with
      | Some f -> run_part part f
      | None ->
          Printf.eprintf "unknown part %s (expected: %s)\n" part
            (String.concat " " (List.map fst all_parts));
          exit 2)
    requested;
  write_metrics_json ();
  Printf.printf "\ntotal bench time: %.0fs\n" (Clock.now_s () -. t0)
