open Qsens_linalg
open Qsens_core
module Box = Qsens_geom.Box
module Budget = Qsens_budget.Budget
module Fault = Qsens_faults.Fault
module Layout = Qsens_catalog.Layout
module Obs = Qsens_obs.Obs
module Pool = Qsens_parallel.Pool

let m_requests = Obs.counter ~help:"server requests handled" "server.requests"
let m_sheds = Obs.counter ~help:"server requests shed (queue bound)" "server.sheds"

let m_degraded =
  Obs.counter ~help:"server responses that degraded past a tier"
    "server.degraded"

let m_errors = Obs.counter ~help:"server typed error responses" "server.errors"

(* ------------------------------------------------------------------ *)
(* Configuration *)

type config = {
  default_budget : int;
  mc_samples : int;
  queue_limit : int;
  cache_bytes : int;
  snapshot_path : string option;
  seed : int;
}

let default_config =
  {
    default_budget = Limits.default_bnb_node_budget;
    mc_samples = 4096;
    queue_limit = 64;
    cache_bytes = 64 * 1024 * 1024;
    snapshot_path = None;
    seed = 42;
  }

(* Nominal logical cost of one (plan, delta) linear-fractional cell —
   the bisection runs a fixed iteration count over dim-sized dots, so a
   flat per-cell charge keeps the fractional tier inside the same budget
   currency as the vertex searches. *)
let fractional_cell_cost = 1024

type t = {
  config : config;
  pool : Pool.t option;
  faults : Fault.injector option;
  setups : (string, Experiment.setup) Hashtbl.t;
      (* Env closures live here: never marshalled, never snapshotted. *)
  candidates_cache : Candidates.result Lru.t;
  sweep_cache : Sweep.t Lru.t;
  bnb_cache : Sweep.Bnb.t Lru.t;
  breakers : (string, Fault.Breaker.t) Hashtbl.t;
  mutable stopping : bool;
  mutable requests : int;
  mutable sheds : int;
  mutable degraded : int;
  mutable errors : int;
}

let marshal_size v = String.length (Marshal.to_string v [ Marshal.No_sharing ])

(* ------------------------------------------------------------------ *)
(* Snapshot: crash-safe persistence of the marshalable caches.  Setups
   hold Env closures and are rebuilt on demand instead. *)

let snapshot_magic = "qsens-server-snapshot-v1"

type snapshot_data =
  string
  * (string * Candidates.result) list
  * (string * Sweep.t) list
  * (string * Sweep.Bnb.t) list

let save_snapshot t path =
  let data : snapshot_data =
    ( snapshot_magic,
      Lru.to_alist t.candidates_cache,
      Lru.to_alist t.sweep_cache,
      Lru.to_alist t.bnb_cache )
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    Marshal.to_channel oc data [];
    close_out oc
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (* Disk-full mid-marshal: drop the channel and the half-written
         temp file so a failed snapshot can never shadow a later good
         one, then surface the original [Sys_error] the callers map to
         their typed error. *)
      close_out_noerr oc;
      (match Sys.remove tmp with
      | () -> ()
      | exception Sys_error _ -> ());
      raise e

let load_snapshot t path =
  if not (Sys.file_exists path) then false
  else
    let read () =
      let ic = open_in_bin path in
      match (Marshal.from_channel ic : snapshot_data) with
      | data ->
          close_in ic;
          Some data
      | exception Failure _ ->
          close_in ic;
          None
      | exception End_of_file ->
          close_in ic;
          None
    in
    match read () with
    | exception Sys_error _ -> false
    | None -> false
    | Some (magic, _, _, _) when not (String.equal magic snapshot_magic) ->
        false
    | Some (_, cands, sweeps, bnbs) ->
        Lru.clear t.candidates_cache;
        Lru.clear t.sweep_cache;
        Lru.clear t.bnb_cache;
        (* Oldest-first replay reproduces LRU recency exactly. *)
        List.iter (fun (k, v) -> Lru.put t.candidates_cache k v) cands;
        List.iter (fun (k, v) -> Lru.put t.sweep_cache k v) sweeps;
        List.iter (fun (k, v) -> Lru.put t.bnb_cache k v) bnbs;
        true

let create ?(config = default_config) ?pool ?faults () =
  let lru name = Lru.create ~name ~byte_budget:config.cache_bytes in
  let t =
    {
      config;
      pool;
      faults;
      setups = Hashtbl.create 16;
      candidates_cache = lru "candidates" ~size_of:marshal_size;
      (* Sweep tables are flat unboxed arrays: their resident size is a
         pure function of the table dimensions, so the byte budget is
         charged exactly instead of via a marshalled-image guess (which
         under-counts the unboxed tables' resident footprint). *)
      sweep_cache = lru "sweeps" ~size_of:Sweep.bytes;
      bnb_cache = lru "bnb" ~size_of:Sweep.Bnb.bytes;
      breakers = Hashtbl.create 4;
      stopping = false;
      requests = 0;
      sheds = 0;
      degraded = 0;
      errors = 0;
    }
  in
  (match config.snapshot_path with
  | Some path -> ignore (load_snapshot t path : bool)
  | None -> ());
  t

let stopping t = t.stopping

let breaker_for t op =
  match Hashtbl.find_opt t.breakers op with
  | Some b -> b
  | None ->
      let b = Fault.Breaker.create () in
      Hashtbl.replace t.breakers op b;
      b

(* ------------------------------------------------------------------ *)
(* Typed errors *)

type err =
  | Malformed of string
  | Shed of int  (* queue limit *)
  | Circuit_open of int  (* consecutive failures *)
  | Failed of string  (* injected fault or internal exception *)
  | Unsupported of string

let err_fields = function
  | Malformed m -> ("malformed", m)
  | Shed limit ->
      ( "shed",
        Printf.sprintf "request queue full (limit %d); retry later" limit )
  | Circuit_open failures ->
      ( "circuit_open",
        Printf.sprintf "circuit open after %d consecutive failures" failures )
  | Failed m -> ("failed", m)
  | Unsupported m -> ("unsupported", m)

let error_response t ~id e =
  t.errors <- t.errors + 1;
  Obs.add m_errors 1;
  let kind, message = err_fields e in
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj [ ("kind", Json.Str kind); ("message", Json.Str message) ] );
    ]

(* ------------------------------------------------------------------ *)
(* Request parsing helpers *)

let policy_of_string = function
  | "same" | "same-device" -> Ok Layout.Same_device
  | "per-table" -> Ok Layout.Per_table_devices
  | "per-table-and-index" | "split" -> Ok Layout.Per_table_and_index_devices
  | s -> Error (Printf.sprintf "unknown layout %S" s)

let get_str req key = Option.bind (Json.member key req) Json.to_str
let get_int req key = Option.bind (Json.member key req) Json.to_int
let get_float req key = Option.bind (Json.member key req) Json.to_float

let ( let* ) = Result.bind
let malformed m = Error (Malformed m)

let get_deltas req =
  match Json.member "deltas" req with
  | Some v -> (
      match
        Option.bind (Json.to_list v) (fun items ->
            let floats = List.filter_map Json.to_float items in
            if List.length floats = List.length items then Some floats
            else None)
      with
      | Some ds when ds <> [] && List.for_all (fun d -> d >= 1.) ds -> Ok ds
      | Some _ ->
          malformed "\"deltas\" must be a non-empty array of numbers >= 1"
      | None -> malformed "\"deltas\" must be an array of numbers")
  | None -> (
      match get_float req "delta" with
      | Some d when d >= 1. ->
          Ok
            (List.filter
               (fun x -> x <= d *. 1.0001)
               Worst_case.default_deltas)
      | Some _ -> malformed "\"delta\" must be >= 1"
      | None -> Ok Worst_case.default_deltas)

(* A present-but-unusable field is a client error, never a silent
   fallback to the default. *)
let get_budget t req =
  match Json.member "budget" req with
  | None -> Ok t.config.default_budget
  | Some v -> (
      match Json.to_int v with
      | Some b when b >= 1 -> Ok b
      | Some _ | None -> malformed "\"budget\" must be a positive integer")

let get_sf req =
  match Json.member "sf" req with
  | None -> Ok 100.
  | Some v -> (
      match Json.to_float v with
      | Some sf when Float.is_finite sf && sf > 0. -> Ok sf
      | Some _ | None -> malformed "\"sf\" must be a finite number > 0")

(* The analysis parameters every worst_case/select/candidates request
   shares. *)
type target = {
  query_name : string;
  policy : Layout.policy;
  policy_name : string;
  sf : float;
  seed : int;
  max_probes : int option;
}

let get_target t req =
  match get_str req "query" with
  | None -> malformed "missing \"query\""
  | Some query_name ->
      let layout = Option.value ~default:"same" (get_str req "layout") in
      let* policy =
        Result.map_error (fun m -> Malformed m) (policy_of_string layout)
      in
      let* sf = get_sf req in
      Ok
        {
          query_name;
          policy;
          policy_name = Layout.policy_name policy;
          sf;
          seed = Option.value ~default:t.config.seed (get_int req "seed");
          max_probes = get_int req "max_probes";
        }

(* ------------------------------------------------------------------ *)
(* Cached building blocks.

   Every cache key is a content hash of everything the cached value is a
   deterministic function of, so a hit can never change a response —
   only skip work.  Budget charges are issued before the lookup and are
   identical on hit and miss for the same reason. *)

let digest_key parts =
  Digest.to_hex (Digest.string (Marshal.to_string parts [ Marshal.No_sharing ]))

let setup_for t (tg : target) =
  let key =
    Printf.sprintf "%.17g|%s|%s" tg.sf tg.policy_name tg.query_name
  in
  match Hashtbl.find_opt t.setups key with
  | Some s -> Ok s
  | None -> (
      match Qsens_tpch.Queries.find ~sf:tg.sf tg.query_name with
      | exception Not_found ->
          malformed (Printf.sprintf "unknown query %S" tg.query_name)
      | exception Invalid_argument m ->
          (* The query texts are fixed, so only the request's scale
             factor can make one invalid (a tiny sf pushes join
             selectivities past 1): a client error, not a failure that
             counts against the breaker. *)
          malformed
            (Printf.sprintf "\"sf\" %g is out of range for %s: %s" tg.sf
               tg.query_name m)
      | query ->
          let schema = Qsens_tpch.Spec.schema ~sf:tg.sf in
          let s = Experiment.setup ~schema ~policy:tg.policy query in
          Hashtbl.replace t.setups key s;
          Ok s)

let candidates_for t (tg : target) s ~delta_max =
  let key =
    digest_key
      ( "candidates",
        tg.sf,
        tg.policy_name,
        tg.query_name,
        delta_max,
        tg.seed,
        tg.max_probes )
  in
  match Lru.find t.candidates_cache key with
  | Some c -> Ok c
  | None -> (
      let m = Projection.active_dim s.Experiment.proj in
      let box = Box.around (Vec.make m 1.) ~delta:delta_max in
      let oracle = Experiment.white_box_oracle s in
      match
        Candidates.discover ~seed:tg.seed ?max_probes:tg.max_probes
          ?pool:t.pool oracle ~box
      with
      | c ->
          Lru.put t.candidates_cache key c;
          Ok c
      | exception Qsens_optimizer.Optimizer.Non_finite m ->
          (* Usage beyond float range: only the request's scale factor
             can cause it, so it is a client error. *)
          malformed
            (Printf.sprintf "\"sf\" %g is out of range for %s: %s" tg.sf
               tg.query_name m))

let sweep_for t ~plans ~initial ~center =
  let key = digest_key ("sweep", plans, initial, center) in
  match Lru.find t.sweep_cache key with
  | Some sw -> sw
  | None ->
      let sw = Sweep.build ?pool:t.pool ~plans ~initial ~center () in
      Lru.put t.sweep_cache key sw;
      sw

let bnb_for t ~plans ~initial ~center =
  let key = digest_key ("bnb", plans, initial, center) in
  match Lru.find t.bnb_cache key with
  | Some b -> b
  | None ->
      let b = Sweep.Bnb.build ~plans ~initial ~center () in
      Lru.put t.bnb_cache key b;
      b

(* The request prefix worst_case and select share. *)
type analysis = {
  tg : target;
  deltas : float list;
  allowance : int;
  dim : int;
  cands : Candidates.result;
  plans : Vec.t array;
}

let get_analysis t req =
  let* tg = get_target t req in
  let* deltas = get_deltas req in
  let* allowance = get_budget t req in
  let* s = setup_for t tg in
  let delta_max = List.fold_left Float.max 1. deltas in
  let* cands = candidates_for t tg s ~delta_max in
  let plans =
    Array.of_list (List.map (fun p -> p.Candidates.eff) cands.Candidates.plans)
  in
  let dim = Projection.active_dim s.Experiment.proj in
  Ok { tg; deltas; allowance; dim; cands; plans }

(* ------------------------------------------------------------------ *)
(* Point encoding *)

let vec_json v = Json.List (Array.to_list (Array.map Json.num v))

let point_json (p : Worst_case.point) =
  Json.Obj
    [
      ("delta", Json.num p.delta);
      ("gtc", Json.num p.gtc);
      ("witness", vec_json p.witness);
    ]

let points_json points = Json.List (List.map point_json points)

let select_point_json (p : Select.point) =
  Json.Obj
    [
      ("delta", Json.num p.delta);
      ("classic", Json.num (Float.of_int p.classic));
      ("lec", Json.num (Float.of_int p.lec));
      ("minimax", Json.num (Float.of_int p.minimax));
      ("expected", vec_json p.expected);
      ("regret", vec_json p.regret);
      ("fallbacks", Json.num (Float.of_int p.fallbacks));
    ]

let select_points_json points = Json.List (List.map select_point_json points)

(* ------------------------------------------------------------------ *)
(* The degradation ladder.

   Both analysis ops walk the same tiers over an array of initial plans:
   worst_case passes the classic plan alone, select passes every
   candidate (candidate [i]'s worst-case GTC is its regret).  Each exact
   tier runs under a fresh budget of the request's allowance, charges
   per initial, builds (or fetches) every table before evaluating any,
   and answers one curve point per (delta, initial); a budget trip
   abandons the whole tier, so a response is never half one tier, half
   another.  Only rendering an answer and the Monte-Carlo floor, which
   divides the allowance across deltas and can always answer, are per
   op. *)

type evaluated = {
  points : Json.t;
  path : string;
  degraded : bool;
  spent : int;
  confidence : Json.t option;
}

(* Per delta, one point per initial. *)
let by_delta ~deltas columns =
  List.mapi (fun di _ -> Array.map (fun col -> col.(di)) columns) deltas

let tier_exhaustive t ~plans ~initials ~center ~deltas b =
  let np = Array.length plans and dim = Vec.dim center in
  let sweeps =
    Array.map
      (fun initial ->
        (* Table build charged up front, hit or miss alike. *)
        Budget.spend b ~who:"server.sweep.build" (np * (1 lsl dim));
        sweep_for t ~plans ~initial ~center)
      initials
  in
  List.map
    (fun delta ->
      Array.map
        (fun sw ->
          Worst_case.point_of_eval ~center ~delta
            (Sweep.eval ~budget:b sw ~delta))
        sweeps)
    deltas

let tier_bnb t ~plans ~initials ~center ~deltas b =
  let np = Array.length plans and dim = Vec.dim center in
  let searches =
    Array.map
      (fun initial ->
        Budget.spend b ~who:"server.bnb.build" (np * dim);
        bnb_for t ~plans ~initial ~center)
      initials
  in
  (* Initial-outer, delta-inner, so the scratch binds once per initial. *)
  let scratch = Sweep.Bnb.Scratch.create () in
  Array.map
    (fun bnb ->
      Array.of_list
        (List.map
           (fun delta ->
             Worst_case.point_of_eval ~center ~delta
               (Sweep.Bnb.eval ~budget:b ~scratch bnb ~delta))
           deltas))
    searches
  |> by_delta ~deltas

let tier_fractional t ~plans ~initials ~deltas b =
  let cells =
    Array.length initials * Array.length plans * List.length deltas
  in
  Budget.spend b ~who:"server.fractional"
    (max 1 (cells * fractional_cell_cost));
  Array.map
    (fun initial ->
      Array.of_list
        (Worst_case.curve_fractional ~deltas ?pool:t.pool ~plans ~initial ()))
    initials
  |> by_delta ~deltas

(* [render ~delta points] encodes one exact answer; [estimate b ~delta]
   is the op's Monte-Carlo floor under budget [b], annotated with
   [caveat]. *)
let ladder t a ~initials ~render ~estimate ~caveat =
  let { allowance; plans; deltas; dim; _ } = a in
  let center = Vec.make dim 1. in
  let exact (path, supported, run) =
    if not supported then None
    else
      let b = Budget.create allowance in
      match run b with
      | columns ->
          Some
            {
              points =
                Json.List
                  (List.map2
                     (fun delta col -> render ~delta col)
                     deltas columns);
              path;
              degraded = false;
              spent = Budget.spent b;
              confidence = None;
            }
      | exception Budget.Exhausted _ -> None
  in
  let tiers =
    [
      ( "exhaustive sweep",
        Sweep.supported ~dim,
        tier_exhaustive t ~plans ~initials ~center ~deltas );
      ( "branch-and-bound",
        Sweep.Bnb.supported ~dim,
        tier_bnb t ~plans ~initials ~center ~deltas );
      ( "linear-fractional fallback",
        true,
        tier_fractional t ~plans ~initials ~deltas );
    ]
  in
  let r =
    match List.find_map exact tiers with
    | Some r -> r
    | None ->
        let per_point = max 1 (allowance / max 1 (List.length deltas)) in
        let spent = ref 0 in
        let points =
          List.map
            (fun delta ->
              let b = Budget.create per_point in
              let p = estimate b ~delta in
              spent := !spent + Budget.spent b;
              p)
            deltas
        in
        {
          points = Json.List points;
          path = "monte-carlo estimate";
          degraded = true;
          spent = !spent;
          confidence = Some (Json.Str caveat);
        }
  in
  (* Degraded = not the tier the unbudgeted dispatcher would have
     picked for this dimension. *)
  let degraded =
    r.degraded || not (String.equal r.path (Worst_case.path_name ~dim))
  in
  if degraded then begin
    t.degraded <- t.degraded + 1;
    Obs.add m_degraded 1
  end;
  { r with degraded }

(* ------------------------------------------------------------------ *)
(* Analysis ops *)

(* Theorem 1 bounds the worst-case GTC of the plan chosen at the
   estimate: a point outside [1, delta^2] is an internal failure, never
   an answer.  Any other candidate's regret is at least 1 and finite. *)
let theorem1 ~delta gtc =
  if not (Bounds.within_theorem1 ~delta gtc) then
    failwith
      (Printf.sprintf "Theorem 1 violated: gtc %g at delta %g is outside [1, %g]"
         gtc delta (delta *. delta));
  gtc

let check_regrets ~delta ~classic regret =
  Array.iteri
    (fun i g ->
      if i = classic then ignore (theorem1 ~delta g)
      else if not (g >= 1. && Float.is_finite g) then
        failwith
          (Printf.sprintf "regret %g of candidate %d at delta %g is not in [1, inf)"
             g i delta))
    regret

let analysis_response a ~op ~extra ~points_key (r : evaluated) =
  Ok
    ([
       ("op", Json.Str op);
       ("query", Json.Str a.tg.query_name);
       ("layout", Json.Str a.tg.policy_name);
       ("dim", Json.num (Float.of_int a.dim));
     ]
    @ extra
    @ [
        ("path", Json.Str r.path);
        ("degraded", Json.Bool r.degraded);
        ("budget", Json.num (Float.of_int a.allowance));
        ("spent", Json.num (Float.of_int r.spent));
        (points_key, r.points);
      ]
    @ match r.confidence with Some c -> [ ("confidence", c) ] | None -> [])

let op_worst_case t req =
  let* a = get_analysis t req in
  let initial = a.cands.Candidates.initial.Candidates.eff in
  ladder t a ~initials:[| initial |]
    ~render:(fun ~delta col ->
      ignore (theorem1 ~delta col.(0).Worst_case.gtc);
      point_json col.(0))
    ~estimate:(fun b ~delta ->
      let s =
        Monte_carlo.gtc_distribution ~seed:a.tg.seed
          ~samples:t.config.mc_samples ?pool:t.pool ~budget:b ~plans:a.plans
          ~initial ~delta ()
      in
      Json.Obj
        [
          ("delta", Json.num delta);
          ("gtc", Json.num (theorem1 ~delta s.Monte_carlo.max_seen));
          ("p99", Json.num s.Monte_carlo.p99);
          ("samples", Json.num (Float.of_int s.Monte_carlo.samples));
        ])
    ~caveat:
      "lower-bound estimate from seeded sampling; exact tiers exceeded the \
       budget"
  |> analysis_response a ~op:"worst_case" ~extra:[] ~points_key:"points"

(* Classic and LEC columns are single kernel dots and never degrade;
   only the regret column moves down the ladder.  Candidate [i]'s regret
   comes from the same memoized sweeps as a worst_case request with
   [initial := plans.(i)], so warm selections are bit-identical to cold
   ones. *)
let op_select t req =
  let* a = get_analysis t req in
  let plans = a.plans in
  let center = Vec.make a.dim 1. in
  let kernel = Kernel.pack plans in
  let classic = Select.classic_index ~plans in
  ladder t a ~initials:plans
    ~render:(fun ~delta col ->
      let regret = Array.map (fun (p : Worst_case.point) -> p.gtc) col in
      check_regrets ~delta ~classic regret;
      select_point_json
        (Select.point_of_regrets ~kernel ~center ~classic ~delta ~regret
           ~fallbacks:0))
    ~estimate:(fun b ~delta ->
      let p =
        Select.estimate ~seed:a.tg.seed ~samples:t.config.mc_samples
          ~budget:b ~plans ~delta ()
      in
      check_regrets ~delta ~classic p.Select.regret;
      select_point_json p)
    ~caveat:
      "regret column is a lower-bound estimate from seeded sampling; \
       classic/lec columns are exact; exact tiers exceeded the budget"
  |> analysis_response a ~op:"select"
       ~extra:
         [
           ( "plans",
             Json.List
               (List.map
                  (fun (p : Candidates.plan) -> Json.Str p.signature)
                  a.cands.Candidates.plans) );
         ]
       ~points_key:"choices"

let op_candidates t req =
  let* tg = get_target t req in
  let* delta_max =
    match get_float req "delta" with
    | Some d when d >= 1. -> Ok d
    | Some _ -> malformed "\"delta\" must be >= 1"
    | None -> Ok (List.fold_left Float.max 1. Worst_case.default_deltas)
  in
  let* s = setup_for t tg in
  let* c = candidates_for t tg s ~delta_max in
  Ok
    [
      ("op", Json.Str "candidates");
      ("query", Json.Str tg.query_name);
      ("layout", Json.Str tg.policy_name);
      ( "dim",
        Json.num (Float.of_int (Projection.active_dim s.Experiment.proj)) );
      ("initial", Json.Str c.Candidates.initial.Candidates.signature);
      ("verified_complete", Json.Bool c.Candidates.verified_complete);
      ("probes", Json.num (Float.of_int c.Candidates.probes));
      ( "plans",
        Json.List
          (List.map
             (fun (p : Candidates.plan) ->
               Json.Obj
                 [
                   ("signature", Json.Str p.signature);
                   ("eff", vec_json p.eff);
                 ])
             c.Candidates.plans) );
    ]

let cache_stats_json cache =
  let s = Lru.stats cache in
  Json.Obj
    [
      ("hits", Json.num (Float.of_int s.Lru.hits));
      ("misses", Json.num (Float.of_int s.Lru.misses));
      ("evictions", Json.num (Float.of_int s.Lru.evictions));
      ("entries", Json.num (Float.of_int (Lru.length cache)));
      ("bytes", Json.num (Float.of_int (Lru.bytes cache)));
    ]

let op_stats t =
  let breakers =
    Hashtbl.fold (fun op b acc -> (op, b) :: acc) t.breakers []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (op, b) ->
           let state =
             match Fault.Breaker.state b with
             | Fault.Breaker.Closed -> "closed"
             | Fault.Breaker.Open -> "open"
             | Fault.Breaker.Half_open -> "half-open"
           in
           ( op,
             Json.Obj
               [
                 ("state", Json.Str state);
                 ("trips", Json.num (Float.of_int (Fault.Breaker.trips b)));
               ] ))
  in
  [
    ("op", Json.Str "stats");
    ("requests", Json.num (Float.of_int t.requests));
    ("sheds", Json.num (Float.of_int t.sheds));
    ("degraded", Json.num (Float.of_int t.degraded));
    ("errors", Json.num (Float.of_int t.errors));
    ( "caches",
      Json.Obj
        [
          ("candidates", cache_stats_json t.candidates_cache);
          ("sweeps", cache_stats_json t.sweep_cache);
          ("bnb", cache_stats_json t.bnb_cache);
        ] );
    ("breakers", Json.Obj breakers);
  ]

let op_invalidate t req =
  let scope = Option.value ~default:"all" (get_str req "scope") in
  let ok () = Ok [ ("op", Json.Str "invalidate"); ("scope", Json.Str scope) ] in
  match scope with
  | "all" ->
      Hashtbl.reset t.setups;
      Lru.clear t.candidates_cache;
      Lru.clear t.sweep_cache;
      Lru.clear t.bnb_cache;
      ok ()
  | "candidates" ->
      Lru.clear t.candidates_cache;
      ok ()
  | "sweeps" ->
      Lru.clear t.sweep_cache;
      Lru.clear t.bnb_cache;
      ok ()
  | s -> Error (Malformed (Printf.sprintf "unknown invalidation scope %S" s))

let op_snapshot t req =
  let path =
    match get_str req "path" with
    | Some p -> Some p
    | None -> t.config.snapshot_path
  in
  match path with
  | None -> Error (Malformed "no snapshot path configured or given")
  | Some path -> (
      match save_snapshot t path with
      | () ->
          Ok
            [
              ("op", Json.Str "snapshot");
              ("path", Json.Str path);
              ( "entries",
                Json.num
                  (Float.of_int
                     (Lru.length t.candidates_cache + Lru.length t.sweep_cache
                    + Lru.length t.bnb_cache)) );
            ]
      | exception Sys_error m -> Error (Failed ("snapshot: " ^ m)))

(* ------------------------------------------------------------------ *)
(* Guarded dispatch: fault injection, circuit breaker, total error
   handling.  A guarded op can fail any way it likes and the loop keeps
   serving. *)

let guarded t ~op f =
  let br = breaker_for t op in
  if not (Fault.Breaker.acquire br) then
    Error (Circuit_open (Fault.Breaker.consecutive_failures br))
  else
    match Fault.apply_opt t.faults ~site:("server." ^ op) 0. with
    | Error `Failed ->
        Fault.Breaker.record_failure br;
        Error (Failed "injected failure")
    | Error `Timed_out ->
        Fault.Breaker.record_failure br;
        Error (Failed "injected timeout")
    | Ok _ -> (
        match f () with
        | Ok fields ->
            Fault.Breaker.record_success br;
            Ok fields
        | Error e ->
            (* Client errors (malformed requests) do not poison the
               breaker: only genuine execution failures count. *)
            (match e with
            | Failed _ -> Fault.Breaker.record_failure br
            | Malformed _ | Shed _ | Circuit_open _ | Unsupported _ -> ());
            Error e
        | exception exn ->
            Fault.Breaker.record_failure br;
            Error (Failed (Printexc.to_string exn)))

let ok_response ~id fields =
  Json.Obj ([ ("id", id); ("ok", Json.Bool true) ] @ fields)

let rec handle_one t ~depth req =
  t.requests <- t.requests + 1;
  Obs.add m_requests 1;
  let id = Option.value ~default:Json.Null (Json.member "id" req) in
  let finish = function
    | Ok fields -> ok_response ~id fields
    | Error e -> error_response t ~id e
  in
  match get_str req "op" with
  | None -> finish (Error (Malformed "missing \"op\""))
  | Some op -> (
      match op with
      | "ping" -> finish (Ok [ ("op", Json.Str "pong") ])
      | "stats" -> finish (Ok (op_stats t))
      | "invalidate" -> finish (op_invalidate t req)
      | "snapshot" -> finish (op_snapshot t req)
      | "shutdown" ->
          t.stopping <- true;
          finish (Ok [ ("op", Json.Str "shutdown"); ("stopping", Json.Bool true) ])
      | "worst_case" ->
          finish (guarded t ~op (fun () -> op_worst_case t req))
      | "select" -> finish (guarded t ~op (fun () -> op_select t req))
      | "candidates" ->
          finish (guarded t ~op (fun () -> op_candidates t req))
      | "batch" ->
          if depth > 0 then
            finish (Error (Unsupported "nested batch requests"))
          else
            let subs =
              Option.bind (Json.member "requests" req) Json.to_list
            in
            (match subs with
            | None -> finish (Error (Malformed "\"requests\" must be an array"))
            | Some subs ->
                (* The bounded queue: requests past the limit are shed
                   with a typed response, never silently dropped. *)
                let limit = t.config.queue_limit in
                let responses =
                  List.mapi
                    (fun i sub ->
                      if i < limit then handle_one t ~depth:1 sub
                      else begin
                        t.sheds <- t.sheds + 1;
                        Obs.add m_sheds 1;
                        let sub_id =
                          Option.value ~default:Json.Null
                            (Json.member "id" sub)
                        in
                        error_response t ~id:sub_id (Shed limit)
                      end)
                    subs
                in
                finish
                  (Ok
                     [
                       ("op", Json.Str "batch");
                       ("responses", Json.List responses);
                     ]))
      | op -> finish (Error (Unsupported (Printf.sprintf "unknown op %S" op))))

let handle t req =
  match handle_one t ~depth:0 req with
  | resp -> resp
  | exception exn ->
      (* Last-resort isolation: even a bug in the dispatcher itself
         yields a typed response, not a dead loop. *)
      let id = Option.value ~default:Json.Null (Json.member "id" req) in
      error_response t ~id (Failed (Printexc.to_string exn))

let handle_line t line =
  match Json.of_string line with
  | Error m -> Json.to_string (error_response t ~id:Json.Null (Malformed m))
  | Ok req -> Json.to_string (handle t req)

(* ------------------------------------------------------------------ *)
(* Serving loops *)

let save_configured t =
  match t.config.snapshot_path with
  | None -> ()
  | Some path -> (
      match save_snapshot t path with () -> () | exception Sys_error _ -> ())

let serve_channel t ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        if String.length (String.trim line) = 0 then loop ()
        else begin
          output_string oc (handle_line t line);
          output_char oc '\n';
          flush oc;
          if not t.stopping then loop ()
        end
  in
  loop ()

let run_stdio t ic oc =
  serve_channel t ic oc;
  save_configured t

let run_socket t ~path =
  (* A client that disconnects mid-write must surface as an [EPIPE]
     exception on this connection, not a process-killing SIGPIPE. *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | (_ : Sys.signal_behavior) -> ()
  | exception Invalid_argument _ -> ());
  (match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let rec accept_loop () =
    if not t.stopping then begin
      let fd, _ = Unix.accept sock in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      (* One misbehaving connection never kills the accept loop:
         channel-level failures ([Sys_error]) and raw-descriptor ones
         ([Unix_error], e.g. EPIPE above) both only end this client. *)
      (match serve_channel t ic oc with
      | () -> ()
      | exception (Sys_error _ | End_of_file | Unix.Unix_error (_, _, _)) ->
          ());
      (* Flush the final buffered response before the descriptor goes
         away — [Unix.close fd] alone silently truncated it.  Both
         channels share [fd]; the [_noerr] closes ignore the second
         close's EBADF and any flush failure on a dead peer. *)
      (match flush oc with
      | () -> ()
      | exception (Sys_error _ | Unix.Unix_error (_, _, _)) -> ());
      close_out_noerr oc;
      close_in_noerr ic;
      accept_loop ()
    end
  in
  accept_loop ();
  (match Unix.close sock with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  (match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  save_configured t
