(* The benchmark's metric catalogue.  BENCHMARK.json declares the same
   names and units; selftest.exe fails when the two drift apart. *)

(* Workload names, in the order e2e.exe defines them. *)
let workloads = [ "figure5"; "figure6-dim6"; "serve-mix" ]

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Reported by untraced runs ([--trace 0]). *)
let end_to_end =
  [
    m "wall_s" "s";
    m "setup_s" "s";
    m "req_tail_ms" "ms";
    m "req_per_s" "1/s";
    m "cold_mean_ms" "ms";
    m "peak_rss_mb" "MB";
    m "candidate_plans" "count";
    m "verified_frac" "fraction";
    m "exact_path_frac" "fraction";
  ]

(* Reported by traced runs ([--trace 1]). *)
let per_layer =
  [
    m "latency.req_p50_ms" "ms";
    m "optimizer.calls" "count";
    m "optimizer.busy_s" "s";
    m "optimizer.ms_per_call" "ms";
    m "optimizer.memo_inserts" "count";
    m "optimizer.share" "fraction";
    m "candidates.busy_s" "s";
    m "candidates.self_s" "s";
    m "candidates.phase1_s" "s";
    m "candidates.phase2_s" "s";
    m "candidates.phase3_s" "s";
    m "candidates.probes" "count";
    m "candidates.fresh_ratio" "fraction";
    m "candidates.regions" "count";
    m "candidates.region_aborts" "count";
    m "lp.calls" "count";
    m "lp.bisect_iters" "count";
    m "gc.minor_mwords" "Mword";
    m "gc.major_collections" "count";
    m "pool.tasks" "count";
    m "pool.batches" "count";
    m "worst_case.busy_s" "s";
    m "select.busy_s" "s";
    m "sweep.evals" "count";
    m "bnb.nodes" "count";
    m "bnb.leaves" "count";
    m "server.worst_case_p50_ms" "ms";
    m "server.select_p50_ms" "ms";
    m "server.stats_ms" "ms";
    m "server.candidates_hit_ratio" "fraction";
    m "server.sweeps_hit_ratio" "fraction";
    m "server.bnb_hit_ratio" "fraction";
    m "server.sweeps_evictions" "count";
    m "server.json_parse_us" "us";
    m "server.json_render_us" "us";
    m "server.response_kb" "KB";
    m "experiment.setup_s" "s";
    m "trace.overhead_frac" "fraction";
    m "trace.coverage_frac" "fraction";
  ]

let metrics_for ~trace = if trace then per_layer else end_to_end

(* The result line: exactly the four keys the benchmark contract names,
   with one entry per catalogue metric.  A metric missing from [values]
   is an error, so the emitted names can never drift from the
   catalogue. *)
let result_json ~trace ~attempted ~failed values =
  let open Qsens_server.Json in
  let metric { name; unit } =
    match List.assoc_opt name values with
    | Some v -> (name, Obj [ ("value", num v); ("unit", Str unit) ])
    | None -> invalid_arg ("Spec.result_json: no value for " ^ name)
  in
  Obj
    [
      ("correct", Bool (failed = 0));
      ("attempted", Num (Float.of_int attempted));
      ("failed", Num (Float.of_int failed));
      ("metrics", Obj (List.map metric (metrics_for ~trace)));
    ]
