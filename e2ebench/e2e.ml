(* End-to-end benchmark runner: runs one workload for at least the given
   number of seconds and prints one JSON result line (Spec.result_json)
   as the last line of standard output.

     e2e.exe --workload figure5|figure6-dim6|serve-mix --seed N
             --seconds S --trace 0|1 [--discovery-seed N] [--commit SHA]
             [--out FILE]

   Untraced runs ([--trace 0]) repeat whole passes of the workload until
   [--seconds] have elapsed and report the end-to-end metrics, medians
   over passes.  Traced runs ([--trace 1]) make one untraced pass and one
   pass with the Obs counters and wall-clock spans on, check that both
   produced bit-identical results, and report the per-layer metrics of
   the traced pass together with a per-analysis breakdown table.  Every
   layer is timed from outside, around the public calls made here.

   Two seeds: [--seed] drives the inputs a run sees (the order of the
   analyses; the serve-mix request stream), [--discovery-seed] the
   randomized candidate discovery itself.  The latter is pinned to the
   CLI's default because discovery cost alone moves 30-50% from one
   discovery seed to the next on figure6-dim6 (the same seed repeats
   within a few percent); {!holdout_discovery_seed} is the second value
   a performance claim must also hold on. *)

open Qsens_linalg
open Qsens_core
module Clock = Qsens_obs.Clock
module Obs = Qsens_obs.Obs
module Pool = Qsens_parallel.Pool
module Json = Qsens_server.Json
module Server = Qsens_server.Server
module Layout = Qsens_catalog.Layout
module Check = Qsens_e2e.Check
module Spec = Qsens_e2e.Spec

let now = Clock.now_s
let sf = Qsens_tpch.Spec.scale_factor_of_paper

(* Probe budget per discovery, as in the bench's figure parts. *)
let probe_budget = 1200

let default_discovery_seed = 42

(* Later performance claims must also hold with this discovery seed. *)
let holdout_discovery_seed = 7919

(* ------------------------------------------------------------------ *)
(* Small statistics *)

let sum = List.fold_left ( +. ) 0.

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean of the slowest tenth (at least one) of [xs].  The request
   latencies are a mixture of a few cost modes — cache hit or rebuild,
   small or large key — so a single high quantile jumps between modes
   from run to run, while the tail mean weighs them. *)
let tail_mean xs =
  let n = List.length xs in
  let k = max 1 ((n + 9) / 10) in
  let slowest = List.filteri (fun i _ -> i < k) (List.sort (fun a b -> Float.compare b a) xs) in
  sum slowest /. Float.of_int k

let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b

(* Wall time of [f ()], accumulated into [acc]. *)
let timed acc f =
  let t0 = now () in
  let r = f () in
  acc := !acc +. (now () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Observability: counters and wall-clock span totals *)

let counter name =
  List.fold_left
    (fun acc (m, v) ->
      match v with
      | Obs.Vcount n when String.equal (Obs.name m) name -> acc + n
      | _ -> acc)
    0 (Obs.snapshot ())

(* Total wall seconds per span name, from the Chrome-trace export of the
   recording in progress (spans are paired per track). *)
let span_totals () =
  let totals = Hashtbl.create 16 in
  let stacks = Hashtbl.create 8 in
  let events =
    match Json.of_string (Obs.trace_string ()) with
    | Ok t -> Option.value ~default:[] (Option.bind (Json.member "traceEvents" t) Json.to_list)
    | Error m -> failwith ("unreadable trace: " ^ m)
  in
  List.iter
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.to_str in
      let wall =
        Option.bind (Json.member "args" e) (fun a ->
            Option.bind (Json.member "wall_ns" a) Json.to_float)
      in
      let tid = Option.bind (Json.member "tid" e) Json.to_int in
      match (str "ph", str "name", tid, wall) with
      | Some "B", Some name, Some tid, Some w ->
          let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          Hashtbl.replace stacks tid ((name, w) :: st)
      | Some "E", Some _, Some tid, Some w -> (
          match Hashtbl.find_opt stacks tid with
          | Some ((name, w0) :: rest) ->
              Hashtbl.replace stacks tid rest;
              let prev = Option.value ~default:0. (Hashtbl.find_opt totals name) in
              Hashtbl.replace totals name (prev +. ((w -. w0) *. 1e-9))
          | Some [] | None -> ())
      | _ -> ())
    events;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt totals name)

let phase_names = [ "candidates.phase1"; "candidates.phase2"; "candidates.phase3" ]

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
                  kb /. 1024.)
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = Figure5 | Figure6_dim6 | Serve_mix

let workloads =
  List.combine Spec.workloads [ Figure5; Figure6_dim6; Serve_mix ]

let domains_for = function
  | Figure6_dim6 -> Domain.recommended_domain_count ()
  | Figure5 | Serve_mix -> 1

(* The nine Figure-6 queries over exactly two tables: active dimension 6,
   the one dimension where Observation-3 subset enumeration runs. *)
let figure6_dim6_queries = [ "Q4"; "Q12"; "Q13"; "Q14"; "Q15"; "Q16"; "Q17"; "Q19"; "Q22" ]

let figure_queries = function
  | Figure5 ->
      ( Layout.Same_device,
        List.map (fun q -> q.Qsens_plan.Query.name) (Qsens_tpch.Queries.all ~sf) )
  | Figure6_dim6 -> (Layout.Per_table_and_index_devices, figure6_dim6_queries)
  | Serve_mix -> invalid_arg "figure_queries"

(* What one pass records, per unit of work (an analysis, or a request). *)
type row = {
  query : string;
  layout : string;
  probes : int;
  plans : int;
  verified : bool;
  exact : bool;  (** answered on its nominal, undegraded path *)
  total_s : float;
  optimizer_s : float;
  candidates_s : float;  (** discovery, optimizer included *)
  curve_s : float;
}

type pass = {
  wall : float;
  rows : row list;  (** one per analysis, or one per key for serve-mix *)
  samples_ms : float list;  (** per-analysis, or warm per-request, latency *)
  cold_ms : float list;
  fingerprint : string list;  (** everything the traced pass must reproduce *)
  errors : string list;
  ops : int;
  layer : (string * float) list;  (** workload-specific per-layer extras *)
}

(* ---- figure workloads --------------------------------------------- *)

type figure_setup = { setups : Experiment.setup list; pool : Pool.t option }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Set-up up to the first analysis: TPC-H schema and queries, the
   per-query experiment set-up (in seeded order), and the domain pool. *)
let figure_setup w ~seed =
  let policy, names = figure_queries w in
  let schema = Qsens_tpch.Spec.schema ~sf in
  let setups =
    Array.of_list
      (List.map
         (fun n -> Experiment.setup ~schema ~policy (Qsens_tpch.Queries.find ~sf n))
         names)
  in
  shuffle (Random.State.make [| seed |]) setups;
  let setups = Array.to_list setups in
  let d = domains_for w in
  { setups; pool = (if d > 1 then Some (Pool.create ~domains:d ()) else None) }

let figure_teardown fs = Option.iter Pool.shutdown fs.pool

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* One analysis: discovery through the white-box optimizer, then the
   worst-case curve on the default 17-point delta grid. *)
let analysis ~seed ?pool (s : Experiment.setup) =
  let t0 = now () in
  let base = Experiment.white_box_oracle s in
  let optimizer_s = ref 0. in
  let oracle =
    Oracle.make ~dim:(Oracle.dim base) ~probe:(fun theta ->
        timed optimizer_s (fun () -> Oracle.probe base theta))
  in
  let m = Oracle.dim base in
  let delta_max = List.fold_left Float.max 1. Worst_case.default_deltas in
  let box = Qsens_geom.Box.around (Vec.make m 1.) ~delta:delta_max in
  let c = Candidates.discover ~seed ~max_probes:probe_budget ?pool oracle ~box in
  let t1 = now () in
  let plan_vecs = Array.of_list (List.map (fun p -> p.Candidates.eff) c.plans) in
  let curve, path =
    Worst_case.curve_with_path ?pool ~plans:plan_vecs ~initial:c.initial.eff ()
  in
  let t2 = now () in
  let name = s.query.Qsens_plan.Query.name in
  let static = Worst_case.path_name ~dim:m in
  let exact = String.equal path static in
  let points = List.map (fun (p : Worst_case.point) -> (p.delta, p.gtc)) curve in
  let errors =
    List.map (fun e -> name ^ ": " ^ e) (Check.curve ~monotone:exact points)
  in
  let fingerprint =
    String.concat " "
      ([ name; c.initial.signature; string_of_bool c.verified_complete;
         string_of_int c.probes; path ]
      @ List.map (fun (p : Candidates.plan) -> p.signature) c.plans
      @ List.concat_map
          (fun (p : Worst_case.point) ->
            bits p.delta :: bits p.gtc :: Array.to_list (Array.map bits p.witness))
          curve)
  in
  let row =
    {
      query = name;
      layout = Layout.policy_name (Layout.policy s.env.Qsens_plan.Env.layout);
      probes = c.probes;
      plans = List.length c.plans;
      verified = c.verified_complete;
      exact;
      total_s = t2 -. t0;
      optimizer_s = !optimizer_s;
      candidates_s = t1 -. t0;
      curve_s = t2 -. t1;
    }
  in
  (row, fingerprint, errors)

let figure_pass ~seed fs =
  let t0 = now () in
  let results =
    List.map
      (fun s ->
        match analysis ~seed ?pool:fs.pool s with
        | r -> Ok r
        | exception e ->
            Error (s.Experiment.query.Qsens_plan.Query.name ^ ": " ^ Printexc.to_string e))
      fs.setups
  in
  let wall = now () -. t0 in
  let ok = List.filter_map Result.to_option results in
  let rows = List.map (fun (r, _, _) -> r) ok in
  {
    wall;
    rows;
    samples_ms = List.map (fun r -> r.total_s *. 1e3) rows;
    cold_ms = List.map (fun r -> r.candidates_s *. 1e3) rows;
    fingerprint = List.map (fun (_, f, _) -> f) ok;
    errors =
      List.filter_map (function Error e -> Some e | Ok _ -> None) results
      @ List.concat_map (fun (_, _, e) -> e) ok;
    ops = List.length results;
    layer =
      [
        ("worst_case.busy_s", sum (List.map (fun r -> r.curve_s) rows));
        ("candidates.busy_s", sum (List.map (fun r -> r.candidates_s) rows));
        ("optimizer.busy_s", sum (List.map (fun r -> r.optimizer_s) rows));
        ("covered_s", sum (List.map (fun r -> r.total_s) rows));
      ];
  }

(* ---- serve-mix ----------------------------------------------------- *)

(* The service keys, most popular first (Zipf rank order): active
   dimensions 3, 5/6, 8/10 and, through the client-settable probe cap,
   the dim-14 branch-and-bound tier in seconds instead of half a minute.
   Their cold discoveries take about 10 s together. *)
let serve_keys =
  List.concat_map
    (fun q -> List.map (fun l -> (q, l, None)) [ "same"; "per-table"; "per-table-and-index" ])
    [ "Q3"; "Q10" ]
  @ [ ("Q5", "per-table-and-index", Some 64); ("Q9", "per-table-and-index", Some 64) ]

(* Warm requests after the cold warm-up, and their composition. *)
let serve_requests = 300
let op_shares = [ ("worst_case", 0.55); ("select", 0.30); ("candidates", 0.10) ]
let invalidate_share = 0.05

(* Every [low_budget_every]-th analysis request carries [low_budget]
   logical nodes, too few for the exact tiers: the degradation ladder
   answers it. *)
let low_budget_every = 8
let low_budget = 64

let request ~op ?budget (q, l, max_probes) =
  let fields =
    [ ("op", Json.Str op); ("query", Json.Str q); ("layout", Json.Str l) ]
    @ (match max_probes with
      | Some n -> [ ("max_probes", Json.Num (Float.of_int n)) ]
      | None -> [])
    @ match budget with Some b -> [ ("budget", Json.Num (Float.of_int b)) ] | None -> []
  in
  Json.to_string (Json.Obj fields)

(* Largest-remainder apportionment of [n] slots by [weights]. *)
let apportion n weights =
  let total = sum weights in
  let exact = List.map (fun w -> Float.of_int n *. w /. total) weights in
  let floors = List.map Float.to_int exact in
  let short = n - List.fold_left ( + ) 0 floors in
  let by_remainder =
    List.mapi (fun i x -> (i, x -. Float.of_int (Float.to_int x))) exact
    |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.filteri (fun k _ -> k < short)
    |> List.map fst
  in
  List.mapi (fun i f -> if List.mem i by_remainder then f + 1 else f) floors

type req = { key : int option; op : string; line : string }

(* The request stream: one cold [candidates] request per key, in key
   order, then [serve_requests] warm requests whose composition (key
   popularity Zipf(1), op mix, low-budget share) is fixed and whose
   order is seeded.  Fixing the composition and the cold order keeps
   the latency quantiles of different seeds comparable. *)
let serve_stream ~seed =
  let keys = Array.of_list serve_keys in
  let nkeys = Array.length keys in
  let cold =
    List.init nkeys (fun k ->
        { key = Some k; op = "candidates"; line = request ~op:"candidates" keys.(k) })
  in
  let zipf = List.init nkeys (fun r -> 1. /. Float.of_int (r + 1)) in
  let analyses = ref 0 in
  let keyed =
    List.concat_map
      (fun (op, share) ->
        let n = Float.to_int (Float.round (Float.of_int serve_requests *. share)) in
        List.concat
          (List.mapi
             (fun k count ->
               List.init count (fun _ ->
                   let budget =
                     if String.equal op "candidates" then None
                     else begin
                       incr analyses;
                       if !analyses mod low_budget_every = 0 then Some low_budget else None
                     end
                   in
                   { key = Some k; op; line = request ~op ?budget keys.(k) }))
             (apportion n zipf)))
      op_shares
  in
  let invalidates =
    List.init
      (Float.to_int (Float.round (Float.of_int serve_requests *. invalidate_share)))
      (fun _ ->
        { key = None; op = "invalidate"; line = {|{"op":"invalidate","scope":"sweeps"}|} })
  in
  let warm = Array.of_list (keyed @ invalidates) in
  shuffle (Random.State.make [| seed |]) warm;
  cold @ Array.to_list warm

type serve_setup = { server : Server.t; stream : req list }

let serve_setup ~seed ~discovery_seed =
  {
    server = Server.create ~config:{ Server.default_config with seed = discovery_seed } ();
    stream = serve_stream ~seed;
  }

let fetch path j = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
let fetch_float path j = Option.bind (fetch path j) Json.to_float

(* One pass of the stream through [Server.handle_line] (untraced), or
   through its three stages timed separately (traced). *)
let serve_pass ~traced ss =
  let replay = Check.Replay.create () in
  let errors = ref [] in
  let fail e = errors := e :: !errors in
  let nkeys = List.length serve_keys in
  let key_opt = Array.make nkeys 0. and key_curve = Array.make nkeys 0. in
  let key_cold = Array.make nkeys None in
  let parse_s = ref 0. and render_s = ref 0. and bytes = ref 0 in
  let by_op = Hashtbl.create 8 in
  let samples = ref [] and cold = ref [] and fingerprint = ref [] and covered = ref 0. in
  let analyses = ref 0 and exact = ref 0 in
  let spans = ref (if traced then span_totals () else fun _ -> 0.) in
  let t0 = now () in
  List.iter
    (fun r ->
      let a = now () in
      let response =
        if not traced then Server.handle_line ss.server r.line
        else
          match timed parse_s (fun () -> Json.of_string r.line) with
          | Error m -> "unparsable request: " ^ m
          | Ok req ->
              let resp = Server.handle ss.server req in
              timed render_s (fun () -> Json.to_string resp)
      in
      let dt = now () -. a in
      covered := !covered +. dt;
      bytes := !bytes + String.length response;
      fingerprint := response :: !fingerprint;
      Hashtbl.replace by_op r.op
        ((dt *. 1e3) :: Option.value ~default:[] (Hashtbl.find_opt by_op r.op));
      (match Check.Replay.record replay ~request:r.line ~response with
      | Some e -> fail e
      | None -> ());
      (match Json.of_string response with
      | Error m -> fail ("unparsable response: " ^ m)
      | Ok resp -> (
          (match Json.member "ok" resp with
          | Some (Json.Bool true) -> ()
          | _ -> fail ("not ok: " ^ r.line ^ " -> " ^ response));
          (if String.equal r.op "worst_case" || String.equal r.op "select" then begin
             incr analyses;
             if Option.bind (Json.member "degraded" resp) Json.to_bool = Some false then
               incr exact
           end);
          (if String.equal r.op "worst_case" then
             let monotone =
               Option.bind (Json.member "degraded" resp) Json.to_bool = Some false
             in
             match Check.response_points resp with
             | Some pts -> List.iter fail (Check.curve ~monotone pts)
             | None -> fail ("worst_case without points: " ^ r.line));
          match r.key with
          | None -> samples := (dt *. 1e3) :: !samples
          | Some k ->
              if String.equal r.op "worst_case" || String.equal r.op "select" then
                key_curve.(k) <- key_curve.(k) +. dt;
              if Option.is_some key_cold.(k) then samples := (dt *. 1e3) :: !samples
              else begin
                cold := (dt *. 1e3) :: !cold;
                key_cold.(k) <- Some (resp, dt);
                if traced then begin
                  let before = !spans in
                  let after = span_totals () in
                  key_opt.(k) <- after "optimizer.optimize" -. before "optimizer.optimize";
                  spans := after
                end
              end)))
    ss.stream;
  let wall = now () -. t0 in
  let stats_t0 = now () in
  let stats = Server.handle ss.server (Json.Obj [ ("op", Json.Str "stats") ]) in
  let stats_ms = (now () -. stats_t0) *. 1e3 in
  let cache name field =
    Option.value ~default:0. (fetch_float [ "caches"; name; field ] stats)
  in
  let hit_ratio name =
    let h = cache name "hits" and m = cache name "misses" in
    if h +. m = 0. then 0. else h /. (h +. m)
  in
  let rows =
    List.mapi
      (fun k (q, l, _) ->
        let resp, dt =
          Option.value ~default:(Json.Null, Float.nan) key_cold.(k)
        in
        let num f = Option.bind (Json.member f resp) Json.to_float in
        {
          query = q;
          layout = l;
          probes = Float.to_int (Option.value ~default:0. (num "probes"));
          plans =
            List.length
              (Option.value ~default:[] (Option.bind (Json.member "plans" resp) Json.to_list));
          verified = Option.bind (Json.member "verified_complete" resp) Json.to_bool = Some true;
          exact = true;
          total_s = dt +. key_curve.(k);
          optimizer_s = key_opt.(k);
          candidates_s = dt;
          curve_s = key_curve.(k);
        })
      serve_keys
  in
  let op_ms op = Option.value ~default:[] (Hashtbl.find_opt by_op op) in
  let nreq = List.length ss.stream in
  {
    wall;
    rows;
    samples_ms = !samples;
    cold_ms = !cold;
    fingerprint = List.rev !fingerprint;
    errors = List.rev !errors;
    ops = nreq;
    layer =
      [
        ("exact_analyses", Float.of_int !exact);
        ("analyses", Float.of_int !analyses);
        ("covered_s", !covered);
        ("worst_case.busy_s", sum (op_ms "worst_case") /. 1e3);
        ("select.busy_s", sum (op_ms "select") /. 1e3);
        ("server.worst_case_p50_ms", median (op_ms "worst_case"));
        ("server.select_p50_ms", median (op_ms "select"));
        ("server.stats_ms", stats_ms);
        ("server.candidates_hit_ratio", hit_ratio "candidates");
        ("server.sweeps_hit_ratio", hit_ratio "sweeps");
        ("server.bnb_hit_ratio", hit_ratio "bnb");
        ("server.sweeps_evictions", cache "sweeps" "evictions");
        ("server.json_parse_us", !parse_s *. 1e6 /. Float.of_int nreq);
        ("server.json_render_us", !render_s *. 1e6 /. Float.of_int nreq);
        ("server.response_kb", Float.of_int !bytes /. 1024. /. Float.of_int nreq);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Set-up, passes, metrics *)

(* Fresh state for one pass, and the time it took to build. *)
type state = Figure of figure_setup | Serve of serve_setup

let setup w ~seed ~discovery_seed =
  let t0 = now () in
  let st =
    match w with
    | Figure5 | Figure6_dim6 -> Figure (figure_setup w ~seed)
    | Serve_mix -> Serve (serve_setup ~seed ~discovery_seed)
  in
  (st, now () -. t0)

let teardown = function Figure fs -> figure_teardown fs | Serve _ -> ()

let run_pass ~discovery_seed ~traced = function
  | Figure fs -> figure_pass ~seed:discovery_seed fs
  | Serve ss -> serve_pass ~traced ss

(* Set-up is repeated [setup_reps] times (each thrown away but the last)
   so [setup_s] is a median, not one cold sample. *)
let setup_reps = 51

let measured_setup w ~seed ~discovery_seed =
  let times = ref [] in
  let rec go k =
    let st, dt = setup w ~seed ~discovery_seed in
    times := dt :: !times;
    if k <= 1 then st
    else begin
      teardown st;
      go (k - 1)
    end
  in
  let st = go setup_reps in
  (st, median !times)

let layer p k = Option.value ~default:0. (List.assoc_opt k p.layer)

let exact_frac w p =
  match w with
  | Serve_mix -> layer p "exact_analyses" /. Float.max 1. (layer p "analyses")
  | Figure5 | Figure6_dim6 ->
      Float.of_int (List.length (List.filter (fun r -> r.exact) p.rows))
      /. Float.of_int (max 1 (List.length p.rows))

let end_to_end w ~setup_s passes =
  let med f = median (List.map f passes) in
  let first = List.hd passes in
  [
    ("wall_s", med (fun p -> p.wall));
    ("setup_s", setup_s);
    ("req_tail_ms", med (fun p -> tail_mean p.samples_ms));
    ("req_per_s", med (fun p -> Float.of_int p.ops /. p.wall));
    ("cold_mean_ms", med (fun p -> sum p.cold_ms /. Float.of_int (List.length p.cold_ms)));
    ("peak_rss_mb", peak_rss_mb ());
    ("candidate_plans", Float.of_int (List.fold_left (fun a r -> a + r.plans) 0 first.rows));
    ( "verified_frac",
      Float.of_int (List.length (List.filter (fun r -> r.verified) first.rows))
      /. Float.of_int (max 1 (List.length first.rows)) );
    ("exact_path_frac", exact_frac w first);
  ]

let per_layer w ~setup_s ~untraced_wall ~traced_pass ~spans ~gc0 ~gc1 =
  let p = traced_pass in
  let c = counter in
  let figure = match w with Serve_mix -> false | Figure5 | Figure6_dim6 -> true in
  let phases = List.map spans phase_names in
  (* The serving path runs discovery inside Server.handle, where only
     its own spans can see it; the figure workloads time it from
     outside. *)
  let optimizer_s = if figure then layer p "optimizer.busy_s" else spans "optimizer.optimize" in
  let candidates_s = if figure then layer p "candidates.busy_s" else sum phases in
  let calls = c "optimizer.calls" in
  let minor0, major0 = gc0 and minor1, major1 = gc1 in
  [
    ("latency.req_p50_ms", median p.samples_ms);
    ("optimizer.calls", Float.of_int calls);
    ("optimizer.busy_s", optimizer_s);
    ("optimizer.ms_per_call", if calls = 0 then 0. else optimizer_s *. 1e3 /. Float.of_int calls);
    ("optimizer.memo_inserts", Float.of_int (c "optimizer.memo_inserts"));
    ("optimizer.share", optimizer_s /. p.wall);
    ("candidates.busy_s", candidates_s);
    ("candidates.self_s", candidates_s -. optimizer_s);
    ("candidates.phase1_s", List.nth phases 0);
    ("candidates.phase2_s", List.nth phases 1);
    ("candidates.phase3_s", List.nth phases 2);
    ("candidates.probes", Float.of_int (c "candidates.probes"));
    ("candidates.fresh_ratio", ratio (c "candidates.fresh_plans") (c "candidates.probes"));
    ("candidates.regions", Float.of_int (c "candidates.regions"));
    ("candidates.region_aborts", Float.of_int (c "candidates.region_aborts"));
    ("lp.calls", Float.of_int (c "lp.calls"));
    ("lp.bisect_iters", Float.of_int (c "lp.bisect_iters"));
    ("gc.minor_mwords", (minor1 -. minor0) /. 1e6);
    ("gc.major_collections", Float.of_int (major1 - major0));
    ("pool.tasks", Float.of_int (c "pool.tasks"));
    ("pool.batches", Float.of_int (c "pool.batches"));
    ("worst_case.busy_s", layer p "worst_case.busy_s");
    ("select.busy_s", layer p "select.busy_s");
    ("sweep.evals", Float.of_int (c "sweep.evals"));
    ("bnb.nodes", Float.of_int (c "bnb.nodes"));
    ("bnb.leaves", Float.of_int (c "bnb.leaves"));
    ("server.worst_case_p50_ms", layer p "server.worst_case_p50_ms");
    ("server.select_p50_ms", layer p "server.select_p50_ms");
    ("server.stats_ms", layer p "server.stats_ms");
    ("server.candidates_hit_ratio", layer p "server.candidates_hit_ratio");
    ("server.sweeps_hit_ratio", layer p "server.sweeps_hit_ratio");
    ("server.bnb_hit_ratio", layer p "server.bnb_hit_ratio");
    ("server.sweeps_evictions", layer p "server.sweeps_evictions");
    ("server.json_parse_us", layer p "server.json_parse_us");
    ("server.json_render_us", layer p "server.json_render_us");
    ("server.response_kb", layer p "server.response_kb");
    ("experiment.setup_s", setup_s);
    ("trace.overhead_frac", (p.wall /. untraced_wall) -. 1.);
    ("trace.coverage_frac", layer p "covered_s" /. p.wall);
  ]

(* The per-analysis (per-key, for serve-mix) breakdown of a traced pass. *)
let breakdown p =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "%-6s %-20s %7s %6s %8s %12s %18s %9s\n" "query" "layout" "probes"
    "plans" "verified" "optimizer_s" "candidates_self_s" "curve_s";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-6s %-20s %7d %6d %8b %12.4f %18.4f %9.4f\n" r.query r.layout
        r.probes r.plans r.verified r.optimizer_s (r.candidates_s -. r.optimizer_s) r.curve_s)
    p.rows;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Main *)

type args = {
  workload : workload;
  seed : int;
  discovery_seed : int;
  seconds : float;
  trace : bool;
  reference : bool;
  commit : string;
  out : string option;
}

let usage () =
  prerr_endline
    "usage: e2e.exe --workload figure5|figure6-dim6|serve-mix --seed N --seconds S \
     --trace 0|1 [--discovery-seed N] [--commit SHA] [--out FILE]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let discovery_seed = ref (Some default_discovery_seed) and reference = ref false in
  let commit = ref "unknown" and out = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := List.assoc_opt v workloads;
        if Option.is_none !workload then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--discovery-seed" :: v :: rest ->
        discovery_seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | "--reference" :: rest ->
        reference := true;
        go rest
    | "--commit" :: v :: rest ->
        commit := v;
        go rest
    | "--out" :: v :: rest ->
        out := Some v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !discovery_seed, !seconds, !trace) with
  | Some workload, Some seed, Some discovery_seed, Some seconds, Some trace when seconds > 0. ->
      { workload; seed; discovery_seed; seconds; trace; reference = !reference;
        commit = !commit; out = !out }
  | _ -> usage ()

let json_obj fields = Json.to_string (Json.Obj fields)
let digest p = Digest.to_hex (Digest.string (String.concat "\n" p.fingerprint))

(* A traced run's untraced reference pass runs in a child process (this
   executable with [--reference]): concurrently with the traced pass when
   the workload leaves a CPU idle, before it otherwise.  The child prints
   one line: wall seconds, operations, check failures, result digest. *)
let max_reported_errors = 20

let reference_main a =
  let st = fst (setup a.workload ~seed:a.seed ~discovery_seed:a.discovery_seed) in
  let p = run_pass ~discovery_seed:a.discovery_seed ~traced:false st in
  teardown st;
  List.iteri
    (fun i e -> if i < max_reported_errors then Printf.printf "check failed: %s\n" e)
    p.errors;
  Printf.printf "reference %.17g %d %d %s\n" p.wall p.ops (List.length p.errors) (digest p)

let spawn_reference a =
  let name = fst (List.find (fun (_, w) -> w = a.workload) workloads) in
  let args =
    [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int a.seed;
       "--discovery-seed"; string_of_int a.discovery_seed; "--seconds"; "1";
       "--trace"; "0"; "--reference" |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  (pid, Unix.in_channel_of_descr rd)

(* [(wall, ops, failures, digest, messages)] of a finished reference. *)
let collect_reference (pid, ic) =
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
  let out = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, out) with
  | Unix.WEXITED 0, last :: messages -> (
      match Scanf.sscanf last "reference %f %d %d %s" (fun w o f d -> (w, o, f, d)) with
      | w, o, f, d -> Ok (w, o, f, d, List.rev messages)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          Error ("unreadable reference output: " ^ last))
  | _ -> Error "the reference pass failed"

let () =
  let a = parse_args () in
  if a.reference then begin
    reference_main a;
    exit 0
  end;
  let name = fst (List.find (fun (_, w) -> w = a.workload) workloads) in
  let env =
    [
      ("workload", Json.Str name);
      ("seed", Json.Num (Float.of_int a.seed));
      ("discovery_seed", Json.Num (Float.of_int a.discovery_seed));
      ("holdout_discovery_seed", Json.Num (Float.of_int holdout_discovery_seed));
      ("nproc", Json.Num (Float.of_int (Domain.recommended_domain_count ())));
      ("domains", Json.Num (Float.of_int (domains_for a.workload)));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str a.commit);
      ("probe_budget", Json.Num (Float.of_int probe_budget));
      ("trace", Json.Bool a.trace);
    ]
  in
  Printf.printf "env %s\n%!" (json_obj env);
  let state, setup_s =
    measured_setup a.workload ~seed:a.seed ~discovery_seed:a.discovery_seed
  in
  let run st ~traced = run_pass ~discovery_seed:a.discovery_seed ~traced st in
  let errors = ref [] and attempted = ref 0 in
  let account ops errs =
    attempted := !attempted + ops;
    errors := !errors @ errs
  in
  let metrics, table =
    if not a.trace then begin
      (* Whole passes until the time is up; each pass starts from fresh
         state so every pass does the same work. *)
      let t0 = now () in
      let rec loop st acc =
        let p = run st ~traced:false in
        teardown st;
        account p.ops p.errors;
        (match acc with
        | first :: _ when first.fingerprint <> p.fingerprint ->
            account 0 [ "a repeated pass produced different results" ]
        | _ -> ());
        let acc = acc @ [ p ] in
        if now () -. t0 >= a.seconds then acc
        else loop (fst (setup a.workload ~seed:a.seed ~discovery_seed:a.discovery_seed)) acc
      in
      let passes = loop state [] in
      (end_to_end a.workload ~setup_s passes, None)
    end
    else begin
      let concurrent =
        domains_for a.workload = 1 && Domain.recommended_domain_count () >= 2
      in
      let child = spawn_reference a in
      let reference = if concurrent then None else Some (collect_reference child) in
      let gc0 = (Gc.minor_words (), (Gc.quick_stat ()).major_collections) in
      Obs.start ~wallclock:true ();
      let traced = run state ~traced:true in
      let gc1 = (Gc.minor_words (), (Gc.quick_stat ()).major_collections) in
      let spans = span_totals () in
      Obs.stop ();
      teardown state;
      account traced.ops traced.errors;
      let reference =
        match reference with Some r -> r | None -> collect_reference child
      in
      let untraced_wall =
        match reference with
        | Ok (wall, ops, failures, d, messages) ->
            account ops messages;
            if failures > List.length messages then
              account 0 (List.init (failures - List.length messages) (fun _ -> "reference check"));
            if not (String.equal d (digest traced)) then
              account 0 [ "the traced pass differs from the untraced pass" ];
            wall
        | Error e ->
            account 1 [ e ];
            Float.nan
      in
      ( per_layer a.workload ~setup_s ~untraced_wall ~traced_pass:traced ~spans ~gc0 ~gc1,
        Some (breakdown traced) )
    end
  in
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) !errors;
  Option.iter print_string table;
  let failed = min !attempted (List.length !errors) in
  let result = Spec.result_json ~trace:a.trace ~attempted:!attempted ~failed metrics in
  (match a.out with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (json_obj
           ([ ("env", Json.Obj env); ("result", result) ]
           @ match table with Some t -> [ ("breakdown", Json.Str t) ] | None -> []));
      output_char oc '\n';
      close_out oc
  | None -> ());
  print_endline (Json.to_string result)
