(* qsens: command-line interface to the query-optimizer sensitivity
   analysis toolkit.

   Subcommands mirror the paper's experiments: [explain] shows the plan
   chosen at the estimated costs, [worst-case] prints one query's
   worst-case GTC curve, [candidates] runs candidate-optimal-plan
   discovery and the Section-8.2 census, [figure] regenerates a full
   figure, [lsq] validates the least-squares usage recovery, and [params]
   dumps the Section-7.3 configuration table. *)

open Cmdliner
open Qsens_core

let policy_of_string = function
  | "same" | "same-device" -> Ok Qsens_catalog.Layout.Same_device
  | "per-table" -> Ok Qsens_catalog.Layout.Per_table_devices
  | "per-table-and-index" | "split" ->
      Ok Qsens_catalog.Layout.Per_table_and_index_devices
  | s -> Error (`Msg (Printf.sprintf "unknown layout %S" s))

let policy_conv =
  Arg.conv
    ( policy_of_string,
      fun ppf p ->
        Format.pp_print_string ppf (Qsens_catalog.Layout.policy_name p) )

let policy_arg =
  let doc =
    "Storage layout: same-device (Fig. 5), per-table (Fig. 7), or \
     per-table-and-index (Fig. 6)."
  in
  Arg.(
    value
    & opt policy_conv Qsens_catalog.Layout.Same_device
    & info [ "l"; "layout" ] ~docv:"LAYOUT" ~doc)

let sf_arg =
  let doc = "TPC-H scale factor (the paper used 100 = 100 GB)." in
  Arg.(value & opt float 100. & info [ "sf" ] ~docv:"SF" ~doc)

let query_arg =
  let doc = "TPC-H query name, Q1 .. Q22." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let delta_arg =
  let doc = "Largest multiplicative cost error delta to explore." in
  Arg.(value & opt float 10_000. & info [ "d"; "delta" ] ~docv:"DELTA" ~doc)

let seed_arg =
  let doc = "Random seed for the discovery sampling." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let faults_arg =
  let doc =
    "Inject deterministic faults into the narrow optimizer interface: \
     $(b,canned) (5% failures + 2% multiplicative noise, seed 7), \
     $(b,none), or a comma-separated spec of fail=P, timeout=P, \
     cacheloss=P, add=SIGMA, mul=SIGMA, latency=MEAN, jitter=J, seed=N."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let retries_arg =
  let doc =
    "Max attempts per narrow-interface probe when faults are injected."
  in
  Arg.(value & opt int 4 & info [ "retries" ] ~docv:"N" ~doc)

(* Parse --faults into an injector (None for absent or "none"). *)
let injector_of_spec = function
  | None -> None
  | Some spec -> (
      match Qsens_faults.Fault.plan_of_string spec with
      | Error msg ->
          Printf.eprintf "bad --faults spec: %s\n" msg;
          exit 2
      | Ok { Qsens_faults.Fault.models = []; _ } -> None
      | Ok plan -> Some (Qsens_faults.Fault.injector plan))

let retry_for ~faults ~retries =
  match faults with
  | None -> Qsens_faults.Fault.Retry.none
  | Some _ ->
      { Qsens_faults.Fault.Retry.default with max_attempts = max 1 retries }

let print_fault_summary = function
  | None -> ()
  | Some inj ->
      let counts = Qsens_faults.Fault.summary inj in
      if counts = [] then print_endline "faults: none fired"
      else begin
        print_string "faults injected:";
        List.iter (fun (k, n) -> Printf.printf " %s=%d" k n) counts;
        print_newline ()
      end

let domains_arg =
  let doc =
    "OCaml domains for the analysis pool: 1 = sequential (default), 0 = \
     auto (QSENS_DOMAINS or the recommended domain count).  Results are \
     identical to the sequential run."
  in
  Arg.(value & opt int 1 & info [ "j"; "domains" ] ~docv:"N" ~doc)

(* Run [f] with an optional domain pool sized per --domains. *)
let with_domains n f =
  if n = 1 then f None
  else
    let domains =
      if n <= 0 then Qsens_parallel.Pool.default_domains () else n
    in
    Qsens_parallel.Pool.with_pool ~domains (fun p -> f (Some p))

let trace_arg =
  let doc =
    "Write a Chrome-trace JSON of the run to $(docv).  Timestamps are \
     logical (per-track event counters), so a fixed seed produces a \
     byte-identical file on every run, including under -j > 1."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print the observability metrics summary after the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Recording is enabled only when asked for: with both flags absent the
   instrumentation stays an allocation-free no-op. *)
let with_obs ~trace ~metrics f =
  let enabled = metrics || Option.is_some trace in
  if enabled then Qsens_obs.Obs.start ();
  match f () with
  | v ->
      if enabled then begin
        Qsens_obs.Obs.stop ();
        Option.iter Qsens_obs.Obs.write_trace trace;
        if metrics then begin
          print_newline ();
          Qsens_report.Metrics.print ()
        end
      end;
      v
  | exception e ->
      if enabled then Qsens_obs.Obs.stop ();
      raise e

let lookup_query sf name =
  match Qsens_tpch.Queries.find ~sf name with
  | q -> q
  | exception Not_found ->
      Printf.eprintf "unknown query %s (expected Q1 .. Q22)\n" name;
      exit 2

let deltas_upto delta_max =
  List.filter (fun d -> d <= delta_max *. 1.0001) Worst_case.default_deltas

(* A plan usage beyond float range (a huge --sf) has no analysis: say so
   and exit non-zero rather than print infinities. *)
let non_finite m =
  Printf.eprintf "qsens: the scale factor is out of range: %s\n" m;
  exit 1

(* Theorem 1 bounds every curve point printed: 1 <= gtc <= delta^2. *)
let check_theorem1 name curve =
  List.iter
    (fun (p : Worst_case.point) ->
      if not (Bounds.within_theorem1 ~delta:p.delta p.gtc) then begin
        Printf.eprintf
          "qsens: %s: Theorem 1 violated: gtc %g at delta %g is outside [1, %g]\n"
          name p.gtc p.delta (p.delta *. p.delta);
        exit 1
      end)
    curve

(* ------------------------------------------------------------------ *)

let explain_cmd =
  let run sf policy name =
    let query = lookup_query sf name in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let env = Qsens_plan.Env.make ~schema ~policy () in
    let costs = Qsens_cost.Defaults.base_costs env.Qsens_plan.Env.space in
    let r = Qsens_optimizer.Optimizer.optimize env query ~costs in
    Format.printf "%a@." Qsens_plan.Query.pp query;
    Format.printf "estimated optimal plan (total cost %.6g):@.%a@."
      r.total_cost Qsens_plan.Node.pp_explain r.plan;
    Format.printf "resource usage vector:@.%a@."
      (Qsens_cost.Space.pp_vec env.Qsens_plan.Env.space)
      r.plan.Qsens_plan.Node.usage
  in
  let doc = "Show the plan chosen at the estimated (default) costs." in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ sf_arg $ policy_arg $ query_arg)

let worst_case_cmd =
  let run sf policy name delta seed domains faults retries trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let query = lookup_query sf name in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let s = Experiment.setup ~schema ~policy query in
    let faults = injector_of_spec faults in
    let retry = retry_for ~faults ~retries in
    let r =
      try
        with_domains domains (fun pool ->
            Experiment.run ~deltas:(deltas_upto delta) ~seed ?faults ~retry
              ?pool s)
      with
      | Experiment.Narrow_estimation_failed { signature; error } ->
          Printf.eprintf "narrow probing failed%s: %s\n"
            (match signature with
            | Some sg -> Printf.sprintf " for plan %s" sg
            | None -> "")
            (Qsens_faults.Fault.error_to_string error);
          exit 1
      | Qsens_optimizer.Optimizer.Non_finite m -> non_finite m
    in
    check_theorem1 name r.curve;
    Printf.printf
      "query %s, layout %s: %d active cost parameters, %d candidate plans%s\n"
      r.query_name
      (Qsens_catalog.Layout.policy_name r.policy)
      r.active_dim
      (List.length r.candidates.plans)
      (if r.candidates.verified_complete then " (verified complete)"
       else " (not verified complete)");
    Printf.printf "evaluation path: %s\n" r.path;
    let table = Qsens_report.Figure.series_table [ (name, r.curve) ] in
    Qsens_report.Table.print table;
    (match Worst_case.asymptote r.curve with
    | `Bounded c ->
        Printf.printf
          "regime: bounded — approaches constant %.4g (Theorem 2; bound %.4g)\n"
          c r.census.theorem2
    | `Quadratic s ->
        Printf.printf "regime: quadratic — gtc ~ %.3g * delta^2 (Theorem 1)\n" s);
    print_fault_summary faults
  in
  let doc =
    "Worst-case global relative cost curve for one query.  With --faults \
     the discovery probes run through the fault-injected narrow \
     interface with retries."
  in
  Cmd.v (Cmd.info "worst-case" ~doc)
    Term.(
      const run $ sf_arg $ policy_arg $ query_arg $ delta_arg $ seed_arg
      $ domains_arg $ faults_arg $ retries_arg $ trace_arg $ metrics_arg)

let candidates_cmd =
  let run sf policy name delta seed trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let query = lookup_query sf name in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let s = Experiment.setup ~schema ~policy query in
    let box =
      Qsens_geom.Box.around
        (Qsens_linalg.Vec.make (Projection.active_dim s.proj) 1.)
        ~delta
    in
    let oracle = Experiment.white_box_oracle s in
    let c =
      try Candidates.discover ~seed oracle ~box
      with Qsens_optimizer.Optimizer.Non_finite m -> non_finite m
    in
    Printf.printf "%d candidate optimal plans (%d probes, %s):\n"
      (List.length c.plans) c.probes
      (if c.verified_complete then "verified complete" else "not verified");
    let names = Array.map (fun i -> (Qsens_cost.Groups.names s.groups).(i))
        (Projection.active s.proj) in
    List.iter
      (fun (p : Candidates.plan) ->
        Printf.printf "%s %s\n"
          (if p.signature = c.initial.signature then "*" else " ")
          p.signature;
        Array.iteri
          (fun i name ->
            if p.eff.(i) <> 0. then
              Printf.printf "      %-28s %.6g\n" name p.eff.(i))
          names)
      c.plans;
    let census = Experiment.census_of s c.plans in
    Printf.printf
      "census: %d pairs, %d complementary, %d near-complementary (>10x), \
       max element ratio %.4g\n"
      census.pairs census.complementary_pairs census.near_pairs
      census.max_element_ratio;
    List.iter
      (fun (k, n) ->
        Printf.printf "  %-12s %d pair(s)\n" (Complementary.kind_name k) n)
      census.by_kind;
    if Float.is_finite census.theorem2 then
      Printf.printf
        "no complementary pairs: Theorem 2 bounds the error by %.4g\n"
        census.theorem2;
    (* Switchover margins from the initial plan. *)
    let plan_vecs =
      Array.of_list (List.map (fun (p : Candidates.plan) -> p.eff) c.plans)
    in
    let current =
      let rec find i = function
        | [] -> 0
        | (p : Candidates.plan) :: rest ->
            if p.signature = c.initial.signature then i else find (i + 1) rest
      in
      find 0 c.plans
    in
    (match Margin.nearest ~plans:plan_vecs ~current () with
    | Some b ->
        Printf.printf
          "nearest switchover: plan %s takes over once costs drift by %.3gx\n"
          (List.nth c.plans b.Margin.competitor).Candidates.signature
          b.Margin.delta
    | None -> Printf.printf "no competitor can overtake the initial plan\n")
  in
  let doc = "Discover candidate optimal plans and classify them." in
  Cmd.v (Cmd.info "candidates" ~doc)
    Term.(
      const run $ sf_arg $ policy_arg $ query_arg $ delta_arg $ seed_arg
      $ trace_arg $ metrics_arg)

let figure_cmd =
  let number_arg =
    let doc = "Figure number: 5, 6 or 7." in
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc)
  in
  let run sf number delta seed domains trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let policy =
      match number with
      | 5 -> Qsens_catalog.Layout.Same_device
      | 6 -> Qsens_catalog.Layout.Per_table_and_index_devices
      | 7 -> Qsens_catalog.Layout.Per_table_devices
      | n ->
          Printf.eprintf "no figure %d (expected 5, 6 or 7)\n" n;
          exit 2
    in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let series =
      with_domains domains (fun pool ->
          List.map
            (fun query ->
              let s = Experiment.setup ~schema ~policy query in
              let r =
                try
                  Experiment.run ~deltas:(deltas_upto delta) ~seed
                    ~max_probes:1500 ?pool s
                with Qsens_optimizer.Optimizer.Non_finite m -> non_finite m
              in
              check_theorem1 r.query_name r.curve;
              Printf.eprintf "%s done (%d plans)\n%!" r.query_name
                (List.length r.candidates.plans);
              (r.query_name, r.curve))
            (Qsens_tpch.Queries.all ~sf))
    in
    Printf.printf "Figure %d: worst-case GTC, layout %s\n" number
      (Qsens_catalog.Layout.policy_name policy);
    Qsens_report.Table.print (Qsens_report.Figure.series_table series);
    print_newline ();
    print_string (Qsens_report.Figure.ascii_plot series);
    print_newline ();
    Qsens_report.Table.print (Qsens_report.Figure.asymptote_summary series)
  in
  let doc = "Regenerate a full figure (all 22 queries; takes minutes)." in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(
      const run $ sf_arg $ number_arg $ delta_arg $ seed_arg $ domains_arg
      $ trace_arg $ metrics_arg)

let lsq_cmd =
  let run sf policy name delta seed faults retries trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let open Qsens_faults in
    let query = lookup_query sf name in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let s = Experiment.setup ~schema ~policy query in
    let m = Projection.active_dim s.proj in
    let box = Qsens_geom.Box.around (Qsens_linalg.Vec.make m 1.) ~delta in
    let faults = injector_of_spec faults in
    let retry = retry_for ~faults ~retries in
    let robust = Option.is_some faults in
    let _, narrow = Experiment.narrow_oracle ~seed ?faults ~retry s ~box in
    let ones = Qsens_linalg.Vec.make m 1. in
    let explained =
      Fault.Retry.run retry ~seed ~site:"cli.explain" (fun ~attempt:_ ->
          Qsens_optimizer.Narrow.explain narrow
            ~costs:(Experiment.expand_theta s ones))
    in
    match explained with
    | Error e ->
        Printf.printf "explain failed: %s\n" (Fault.error_to_string e);
        print_fault_summary faults;
        exit 1
    | Ok (signature, _) -> (
        match
          Probe.estimate_usage ~seed ~retry ~robust ~narrow
            ~expand:(Experiment.expand_theta s) ~signature ~box ()
        with
        | Error e ->
            Printf.printf "estimation failed: %s\n" (Fault.error_to_string e);
            print_fault_summary faults;
            exit 1
        | Ok est ->
            Printf.printf
              "plan %s\nestimated effective usage from %d cost observations \
               (max fitting residual %.3g%%%s):\n"
              signature est.samples (100. *. est.residual)
              (if est.dropped > 0 then
                 Printf.sprintf ", %d probe(s) dropped" est.dropped
               else "");
            let names =
              Array.map (fun i -> (Qsens_cost.Groups.names s.groups).(i))
                (Projection.active s.proj)
            in
            Array.iteri
              (fun i name -> Printf.printf "  %-28s %.6g\n" name est.usage.(i))
              names;
            (match
               Probe.validate ~retry ~narrow
                 ~expand:(Experiment.expand_theta s) ~signature ~box est
             with
            | Ok err ->
                Printf.printf
                  "validation: max cost-prediction discrepancy %.4g%% \
                   (paper: <1%%)\n"
                  (100. *. err)
            | Error e ->
                Printf.printf "validation failed: %s\n"
                  (Fault.error_to_string e));
            print_fault_summary faults)
  in
  let doc =
    "Recover a plan's usage vector through the narrow interface \
     (least squares, Section 6.1.1)."
  in
  Cmd.v (Cmd.info "lsq" ~doc)
    Term.(
      const run $ sf_arg $ policy_arg $ query_arg $ delta_arg $ seed_arg
      $ faults_arg $ retries_arg $ trace_arg $ metrics_arg)

let diagram_cmd =
  let dims_arg =
    let doc =
      "Two active cost dimensions to sweep, as a comma-separated pair of \
       group names (e.g. dev:tbl:lineitem,dev:idx:lineitem) or indices."
    in
    Arg.(value & opt (some string) None & info [ "dims" ] ~docv:"X,Y" ~doc)
  in
  let run sf policy name delta dims =
    let query = lookup_query sf name in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let s = Experiment.setup ~schema ~policy query in
    let names = Qsens_cost.Groups.names s.groups in
    let active = Projection.active s.proj in
    let m = Projection.active_dim s.proj in
    let resolve spec =
      match int_of_string_opt spec with
      | Some i when i >= 0 && i < m -> i
      | Some _ ->
          Printf.eprintf "dimension index out of range (0..%d)\n" (m - 1);
          exit 2
      | None -> (
          let rec find k =
            if k >= m then None
            else if names.(active.(k)) = spec then Some k
            else find (k + 1)
          in
          match find 0 with
          | Some k -> k
          | None ->
              Printf.eprintf "unknown dimension %s; available:\n" spec;
              for k = 0 to m - 1 do
                Printf.eprintf "  %d: %s\n" k names.(active.(k))
              done;
              exit 2)
    in
    let dx, dy =
      match dims with
      | Some spec -> (
          match String.split_on_char ',' spec with
          | [ a; b ] -> (resolve a, resolve b)
          | _ ->
              Printf.eprintf "expected --dims X,Y\n";
              exit 2)
      | None -> (0, if m > 1 then 1 else 0)
    in
    let oracle = Experiment.white_box_oracle s in
    let d =
      Plan_diagram.compute ~grid:28 ~oracle ~plans:[] ~dim_x:dx ~dim_y:dy
        ~delta ()
    in
    Printf.printf "x: %s, y: %s\n" names.(active.(dx)) names.(active.(dy));
    print_string (Plan_diagram.render d);
    Printf.printf "convexity violations: %d\n"
      (Plan_diagram.convexity_violations d)
  in
  let doc =
    "Plot the regions of influence over a 2-D slice of the cost space."
  in
  Cmd.v (Cmd.info "diagram" ~doc)
    Term.(const run $ sf_arg $ policy_arg $ query_arg $ delta_arg $ dims_arg)

let sql_cmd =
  let sql_arg =
    let doc = "A select-project-join SQL block over the TPC-H schema." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let run sf policy sql =
    let schema = Qsens_tpch.Spec.schema ~sf in
    let query =
      try Qsens_sql.Binder.parse_and_bind schema ~name:"adhoc" sql with
      | Qsens_sql.Parser.Error msg
      | Qsens_sql.Binder.Error msg
      | Qsens_sql.Lexer.Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
    in
    Format.printf "%a@." Qsens_plan.Query.pp query;
    let env = Qsens_plan.Env.make ~schema ~policy () in
    let costs = Qsens_cost.Defaults.base_costs env.Qsens_plan.Env.space in
    let r = Qsens_optimizer.Optimizer.optimize env query ~costs in
    Format.printf "estimated optimal plan (total cost %.6g):@.%a@."
      r.total_cost Qsens_plan.Node.pp_explain r.plan
  in
  let doc = "Parse, bind and optimize an ad-hoc SQL query." in
  Cmd.v (Cmd.info "sql" ~doc) Term.(const run $ sf_arg $ policy_arg $ sql_arg)

let profile_cmd =
  let dim_arg =
    let doc = "Cost dimension to sweep (group name or active index)." in
    Arg.(value & opt (some string) None & info [ "dim" ] ~docv:"DIM" ~doc)
  in
  let run sf policy name delta seed dim =
    let query = lookup_query sf name in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let s = Experiment.setup ~schema ~policy query in
    let names = Qsens_cost.Groups.names s.groups in
    let active = Projection.active s.proj in
    let m = Projection.active_dim s.proj in
    let d =
      match dim with
      | None -> 0
      | Some spec -> (
          match int_of_string_opt spec with
          | Some i when i >= 0 && i < m -> i
          | _ -> (
              let rec find k =
                if k >= m then (
                  Printf.eprintf "unknown dimension %s; available:\n" spec;
                  for k = 0 to m - 1 do
                    Printf.eprintf "  %d: %s\n" k names.(active.(k))
                  done;
                  exit 2)
                else if names.(active.(k)) = spec then k
                else find (k + 1)
              in
              find 0))
    in
    let box =
      Qsens_geom.Box.around (Qsens_linalg.Vec.make m 1.) ~delta
    in
    let oracle = Experiment.white_box_oracle s in
    let c = Candidates.discover ~seed ~max_probes:1200 oracle ~box in
    let plans =
      Array.of_list (List.map (fun (p : Candidates.plan) -> p.eff) c.plans)
    in
    let segs =
      Envelope.compute ~plans ~dim:d ~lo:(1. /. delta) ~hi:delta
    in
    Printf.printf
      "exact optimal-plan profile along %s (others at their estimates):\n"
      names.(active.(d));
    List.iter
      (fun (seg : Envelope.segment) ->
        Printf.printf "  [%8.4g .. %8.4g]  %s\n" seg.from_theta seg.to_theta
          (List.nth c.plans seg.plan).Candidates.signature)
      segs;
    Printf.printf "%d plan change(s) across the sweep\n"
      (List.length (Envelope.breakpoints segs))
  in
  let doc =
    "Exact 1-D parametric profile: optimal-plan intervals along one cost \
     dimension."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ sf_arg $ policy_arg $ query_arg $ delta_arg $ seed_arg
          $ dim_arg)

let robust_cmd =
  let run sf policy name delta seed =
    let query = lookup_query sf name in
    let schema = Qsens_tpch.Spec.schema ~sf in
    let s = Experiment.setup ~schema ~policy query in
    let box =
      Qsens_geom.Box.around
        (Qsens_linalg.Vec.make (Projection.active_dim s.proj) 1.)
        ~delta
    in
    let oracle = Experiment.white_box_oracle s in
    let c = Candidates.discover ~seed ~max_probes:1200 oracle ~box in
    let plans =
      Array.of_list (List.map (fun (p : Candidates.plan) -> p.eff) c.plans)
    in
    let signature i = (List.nth c.plans i).Candidates.signature in
    let nominal = Robust.nominal ~plans in
    let nominal_scored =
      Robust.evaluate ~plans ~index:nominal.Robust.index ~delta
    in
    let mm = Robust.minimax ~plans ~delta in
    Printf.printf
      "nominal plan   %s\n  worst-case GTC over +/-%gx errors: %.4g\n"
      (signature nominal.Robust.index) delta nominal_scored.Robust.worst_gtc;
    Printf.printf
      "minimax plan   %s\n  worst-case GTC: %.4g, nominal penalty %.3fx\n"
      (signature mm.Robust.index) mm.Robust.worst_gtc mm.Robust.nominal_penalty;
    if mm.Robust.index = nominal.Robust.index then
      print_endline "the nominal optimum is already the robust choice"
    else
      Printf.printf
        "recommendation: if cost estimates can be off by %gx, the minimax \
         plan\ntrades %.1f%% at the estimates for a %.3gx better worst \
         case.\n"
        delta
        (100. *. (mm.Robust.nominal_penalty -. 1.))
        (nominal_scored.Robust.worst_gtc /. mm.Robust.worst_gtc)
  in
  let doc = "Recommend a plan that is robust to cost-estimate errors." in
  Cmd.v (Cmd.info "robust" ~doc)
    Term.(const run $ sf_arg $ policy_arg $ query_arg $ delta_arg $ seed_arg)

let select_cmd =
  let run sf policy name delta seed domains =
    with_domains domains (fun pool ->
        let query = lookup_query sf name in
        let schema = Qsens_tpch.Spec.schema ~sf in
        let s = Experiment.setup ~schema ~policy query in
        let box =
          Qsens_geom.Box.around
            (Qsens_linalg.Vec.make (Projection.active_dim s.proj) 1.)
            ~delta
        in
        let oracle = Experiment.white_box_oracle s in
        let c = Candidates.discover ~seed ~max_probes:1200 ?pool oracle ~box in
        let plans =
          Array.of_list
            (List.map (fun (p : Candidates.plan) -> p.eff) c.plans)
        in
        let signatures =
          Array.of_list
            (List.map (fun (p : Candidates.plan) -> p.signature) c.plans)
        in
        let points, path =
          Select.curve ~deltas:(deltas_upto delta) ?pool ~plans ()
        in
        Printf.printf
          "%d candidate plans over +/-%gx cost errors (%s); evaluation \
           path: %s\n\n"
          (Array.length plans) delta
          (Qsens_catalog.Layout.policy_name policy)
          path;
        Qsens_report.Table.print
          (Qsens_report.Figure.selection_table ~signatures points);
        print_newline ();
        print_string
          (Qsens_report.Figure.ascii_plot
             (Qsens_report.Figure.selection_series points));
        match List.rev points with
        | [] -> ()
        | (last : Select.point) :: _ ->
            let name i = signatures.(i) in
            if last.Select.minimax = last.Select.classic then
              Printf.printf
                "\nat delta = %g the classic choice %s is already minimax-\
                 optimal.\n"
                last.Select.delta
                (name last.Select.classic)
            else
              Printf.printf
                "\nat delta = %g: classic picks %s (worst-case GTC %.4g), \
                 minimax picks %s (%.4g) — a %.3gx better guarantee.\n"
                last.Select.delta
                (name last.Select.classic)
                last.Select.regret.(last.Select.classic)
                (name last.Select.minimax)
                last.Select.regret.(last.Select.minimax)
                (last.Select.regret.(last.Select.classic)
                /. last.Select.regret.(last.Select.minimax)))
  in
  let doc =
    "Compare plan-selection rules over the error box: classic (optimal at \
     the estimates), least expected cost under the uniform box prior, and \
     minimax worst-case regret (PARQO-style)."
  in
  Cmd.v (Cmd.info "select" ~doc)
    Term.(
      const run $ sf_arg $ policy_arg $ query_arg $ delta_arg $ seed_arg
      $ domains_arg)

let params_cmd =
  let run () =
    let table = Qsens_report.Table.make ~header:[ "Parameter Name"; "Value" ] in
    List.iter
      (fun (k, v) -> Qsens_report.Table.add_row table [ k; v ])
      Qsens_cost.Defaults.system_parameters;
    Qsens_report.Table.print table
  in
  let doc = "Print the optimizer configuration table (Section 7.3)." in
  Cmd.v (Cmd.info "params" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* The sensitivity service (DESIGN.md section 14). *)

module Server = Qsens_server.Server
module Sjson = Qsens_server.Json

let socket_doc = "Unix-domain socket path for the analysis service."

let serve_cmd =
  let run socket budget mc_samples queue_limit cache_mb snapshot seed
      faults_spec domains =
    let faults = injector_of_spec faults_spec in
    let config =
      {
        Server.default_budget = budget;
        mc_samples;
        queue_limit;
        cache_bytes = cache_mb * 1024 * 1024;
        snapshot_path = snapshot;
        seed;
      }
    in
    with_domains domains (fun pool ->
        let t = Server.create ~config ?pool ?faults () in
        match socket with
        | Some path -> Server.run_socket t ~path
        | None -> Server.run_stdio t stdin stdout)
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:socket_doc)
  in
  let budget_arg =
    let doc =
      "Default logical node budget per analysis request (requests may \
       carry their own)."
    in
    Arg.(
      value
      & opt int Limits.default_bnb_node_budget
      & info [ "budget" ] ~docv:"NODES" ~doc)
  in
  let mc_arg =
    let doc = "Monte-Carlo samples per curve point on the estimate tier." in
    Arg.(value & opt int 4096 & info [ "mc-samples" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Batch queue bound; requests beyond it are shed." in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Byte budget per memoization cache, in MiB." in
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let snapshot_arg =
    let doc =
      "Cache snapshot file: loaded on start, written on shutdown and by \
       the snapshot op."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Serve sensitivity analyses over line-delimited JSON (stdio, or a \
     Unix socket with --socket)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ budget_arg $ mc_arg $ queue_arg $ cache_arg
      $ snapshot_arg $ seed_arg $ faults_arg $ domains_arg)

let client_cmd =
  let connect path =
    let rec attempt n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception
          Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
        when n > 0 ->
          (match Unix.close fd with
          | () -> ()
          | exception Unix.Unix_error (_, _, _) -> ());
          Unix.sleepf 0.05;
          attempt (n - 1)
    in
    attempt 200
  in
  (* Mirrors the server's delta defaulting so --check recomputes exactly
     the grid the request asked for. *)
  let deltas_of_req req =
    match Option.bind (Sjson.member "deltas" req) Sjson.to_list with
    | Some items -> List.filter_map Sjson.to_float items
    | None -> (
        match Option.bind (Sjson.member "delta" req) Sjson.to_float with
        | Some d -> deltas_upto d
        | None -> Worst_case.default_deltas)
  in
  let check_response ~pool ~failures req_line resp_line =
    match (Sjson.of_string req_line, Sjson.of_string resp_line) with
    | Error _, _ | _, Error _ -> ()
    | Ok req, Ok resp ->
        let ok =
          Option.value ~default:false
            (Option.bind (Sjson.member "ok" resp) Sjson.to_bool)
        in
        let op =
          Option.value ~default:""
            (Option.bind (Sjson.member "op" resp) Sjson.to_str)
        in
        let verify ~field ~reference =
          let degraded =
            Option.value ~default:false
              (Option.bind (Sjson.member "degraded" resp) Sjson.to_bool)
          in
          let path =
            Option.value ~default:""
              (Option.bind (Sjson.member "path" resp) Sjson.to_str)
          in
          if degraded then begin
            if String.length path = 0 then begin
              incr failures;
              Printf.eprintf "check: degraded response without a path\n"
            end
            else Printf.eprintf "check: degraded via %s, annotated\n" path
          end
          else
            let query =
              Option.value ~default:""
                (Option.bind (Sjson.member "query" req) Sjson.to_str)
            in
            let layout =
              Option.value ~default:"same"
                (Option.bind (Sjson.member "layout" req) Sjson.to_str)
            in
            let sf =
              Option.value ~default:100.
                (Option.bind (Sjson.member "sf" req) Sjson.to_float)
            in
            let seed =
              Option.value ~default:42
                (Option.bind (Sjson.member "seed" req) Sjson.to_int)
            in
            let max_probes =
              Option.bind (Sjson.member "max_probes" req) Sjson.to_int
            in
            let deltas = deltas_of_req req in
            let got =
              Option.map Sjson.to_string (Sjson.member field resp)
            in
            match
              reference ~sf ~seed ?max_probes ?pool ~deltas ~query ~layout ()
            with
            | Error m ->
                incr failures;
                Printf.eprintf "check: %s/%s: reference failed: %s\n" query
                  layout m
            | Ok expect -> (
                match got with
                | Some got when String.equal got expect ->
                    Printf.eprintf
                      "check: %s %s/%s bit-identical to fresh run\n" op query
                      layout
                | Some _ ->
                    incr failures;
                    Printf.eprintf
                      "check: %s %s/%s DIVERGES from fresh computation\n" op
                      query layout
                | None ->
                    incr failures;
                    Printf.eprintf "check: %s/%s: response has no %s\n" query
                      layout field)
        in
        if ok && String.equal op "worst_case" then
          verify ~field:"points" ~reference:Qsens_server.Soak.reference_line
        else if ok && String.equal op "select" then
          verify ~field:"choices"
            ~reference:Qsens_server.Soak.select_reference_line
  in
  let run socket requests check domains =
    with_domains domains (fun pool ->
        let fd = connect socket in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let requests =
          if requests <> [] then requests
          else
            let rec slurp acc =
              match input_line stdin with
              | line -> slurp (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            slurp []
        in
        let failures = ref 0 in
        List.iter
          (fun req ->
            output_string oc req;
            output_char oc '\n';
            flush oc;
            match input_line ic with
            | resp ->
                print_endline resp;
                if check then check_response ~pool ~failures req resp
            | exception End_of_file ->
                incr failures;
                Printf.eprintf "server closed the connection\n")
          requests;
        (match Unix.close fd with
        | () -> ()
        | exception Unix.Unix_error (_, _, _) -> ());
        if !failures > 0 then exit 1)
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:socket_doc)
  in
  let request_arg =
    let doc =
      "A request to send, as one JSON object (repeatable, sent in \
       order).  With no requests, lines are read from stdin."
    in
    Arg.(value & opt_all string [] & info [ "r"; "request" ] ~docv:"JSON" ~doc)
  in
  let check_arg =
    let doc =
      "Verify responses: recompute every successful non-degraded \
       worst_case and select answer from scratch and require \
       bit-identity; require a path annotation on degraded answers.  \
       Exits nonzero on any divergence."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let doc = "Send requests to a running sensitivity service." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const run $ socket_arg $ request_arg $ check_arg $ domains_arg)

let main =
  let doc =
    "Sensitivity of query optimization to storage access cost parameters"
  in
  Cmd.group
    (Cmd.info "qsens" ~version:"1.0.0" ~doc)
    [ explain_cmd; worst_case_cmd; candidates_cmd; figure_cmd; lsq_cmd;
      diagram_cmd; profile_cmd; robust_cmd; select_cmd; sql_cmd; params_cmd;
      serve_cmd; client_cmd ]

let () = exit (Cmd.eval main)
