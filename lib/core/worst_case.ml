open Qsens_linalg
open Qsens_geom
module Pool = Qsens_parallel.Pool
module Obs = Qsens_obs.Obs
module Budget = Qsens_budget.Budget

let m_curve_points = Obs.counter ~help:"worst-case curve points" "wc.curve_points"

let m_budget_fallbacks =
  Obs.counter
    ~help:
      "grid points where the branch-and-bound node budget tripped and the \
       linear-fractional path answered instead"
    "wc.budget_fallbacks"

type point = { delta : float; gtc : float; witness : Vec.t }

let default_deltas =
  (* 10^0, 10^0.25, ..., 10^4 *)
  List.init 17 (fun i -> Float.pow 10. (0.25 *. Float.of_int i))

(* All curves sweep boxes around the estimated cost point, which is the
   all-ones vector in the (active) group subspace. *)
let ones_center ~initial = Vec.make (Vec.dim initial) 1.

(* ------------------------------------------------------------------ *)
(* One engine per tier, built once per (plans, initial): exhaustive
   subset-sum tables up to Sweep.max_dim, the branch-and-bound search up
   to Sweep.Bnb.max_dim, the linear-fractional program beyond.  A
   further initial against the same plan set is a [rebind] — the tables
   depend only on (plans, center) — so evaluating many initials costs
   one build. *)

type tier = Exhaustive of Sweep.t | Bnb of Sweep.Bnb.t | Fractional

type engine = { plans : Vec.t array; initial : Vec.t; tier : tier }

let engine ?pool ~plans ~initial () =
  let dim = Vec.dim initial in
  let center = ones_center ~initial in
  let tier =
    if Array.length plans = 0 then Fractional
    else if Sweep.supported ~dim then
      Exhaustive (Sweep.build ?pool ~plans ~initial ~center ())
    else if Sweep.Bnb.supported ~dim then
      Bnb (Sweep.Bnb.build ~plans ~initial ~center ())
    else Fractional
  in
  { plans; initial; tier }

let rebind e ~initial =
  let tier =
    match e.tier with
    | Exhaustive sweep -> Exhaustive (Sweep.rebind sweep ~initial)
    | Bnb bnb -> Bnb (Sweep.Bnb.rebind bnb ~initial)
    | Fractional -> Fractional
  in
  { e with initial; tier }

let point_of_eval ~center ~delta (gtc, pattern) =
  let box = Box.around center ~delta in
  let witness =
    if pattern < 0 then Box.center box else Box.vertex box pattern
  in
  { delta; gtc; witness }

(* Linear-fractional evaluation of one point: the top tier beyond the
   pattern-bit bound, and the per-point budget fallback of the
   branch-and-bound tier. *)
let gtc_at_full_fractional ?pool ~plans ~initial delta =
  let box = Box.around (ones_center ~initial) ~delta in
  Framework.worst_case_gtc_fractional ?pool ~plans ~a:initial box

let curve_fractional ?(deltas = default_deltas) ?pool ~plans ~initial () =
  List.map
    (fun delta ->
      let gtc, witness = gtc_at_full_fractional ?pool ~plans ~initial delta in
      Obs.add m_curve_points 1;
      { delta; gtc; witness })
    deltas

(* Exhaustive tier: separable subset-sum tables, built once per sweep. *)
let curve_kernel ?pool sweep ~center darr =
  let nd = Array.length darr in
  let results = Array.make nd { delta = nan; gtc = nan; witness = [||] } in
  (match pool with
  | Some p when Pool.domains p > 1 && nd > 1 ->
      Pool.parallel_for_chunked p ~n:nd (fun lo hi ->
          for di = lo to hi - 1 do
            let delta = darr.(di) in
            (* qsens-lint: disable=P001; qsens-check: disable=C001 — disjoint [lo, hi) slices *)
            results.(di) <-
              (* qsens-check: disable=C003 — no budget here, so Sweep.eval cannot raise Exhausted *)
              point_of_eval ~center ~delta (Sweep.eval sweep ~delta)
          done)
  | _ ->
      (* Sequential: evaluate the whole grid through the incremental
         kernel — bit-identical to per-point [Sweep.eval], with the
         numerator vertex values hoisted once per delta and zero
         minor-heap words per point in steady state. *)
      let gtc = Float.Array.make nd nan in
      let patterns = Array.make nd (-1) in
      Sweep.eval_grid sweep ~deltas:darr ~gtc ~patterns;
      for di = 0 to nd - 1 do
        results.(di) <-
          point_of_eval ~center ~delta:darr.(di)
            (Float.Array.get gtc di, patterns.(di))
      done);
  Obs.add m_curve_points nd;
  results

let count_fell fell = Array.fold_left (fun a f -> if f then a + 1 else a) 0 fell

(* Branch-and-bound tier: no 2^dim tables, so it covers the dimensions
   the exhaustive kernel gates out — bit-identical to the kernel wherever
   both are defined (Sweep.Bnb's determinism contract).

   [node_budget] is the per-grid-point allowance: each delta's search
   runs under a fresh budget, and a point whose search trips it degrades
   to the linear-fractional program for that point alone (recorded in
   [fell] and the wc.budget_fallbacks counter).  Whether a point trips
   is a pure function of (budget, plans, delta) — the search is
   sequential — so the fallback set is deterministic for any pool
   size. *)
let curve_bnb ?pool ~node_budget ~plans ~initial bnb ~center darr =
  let nd = Array.length darr in
  let results = Array.make nd { delta = nan; gtc = nan; witness = [||] } in
  let fell = Array.make nd false in
  let fill ~scratch lo hi =
    for di = lo to hi - 1 do
      let delta = darr.(di) in
      let budget = Budget.create node_budget in
      (* qsens-check: disable=C001 — each chunk fills a disjoint [lo, hi) slice *)
      results.(di) <-
        (try
           point_of_eval ~center ~delta
             (Sweep.Bnb.eval ~budget ~scratch bnb ~delta)
         with Budget.Exhausted _ ->
           (* qsens-check: disable=C001 — each chunk fills a disjoint [lo, hi) slice *)
           fell.(di) <- true;
           let gtc, witness = gtc_at_full_fractional ~plans ~initial delta in
           { delta; gtc; witness })
    done
  in
  (match pool with
  | Some p when Pool.domains p > 1 && nd > 1 ->
      (* Chunk over grid points, one scratch per chunk: a
         Bnb.Scratch is single-owner state and the chunks run on
         distinct domains.  Results are identical to the sequential
         sweep. *)
      Pool.parallel_for_chunked p ~n:nd (fun lo hi ->
          fill ~scratch:(Sweep.Bnb.Scratch.create ()) lo hi)
  | _ ->
      (* One scratch for the whole sweep: the node-pool engine refills
         the flat spec tables per delta and allocates nothing per search
         node. *)
      fill ~scratch:(Sweep.Bnb.Scratch.create ()) 0 nd);
  Obs.add m_budget_fallbacks (count_fell fell);
  Obs.add m_curve_points nd;
  (results, fell)

(* Every point of [e] over the grid, with the per-point budget-fallback
   flags (only the branch-and-bound tier ever sets one). *)
let run ?pool ~node_budget e darr =
  let center = ones_center ~initial:e.initial in
  let exact points = (points, Array.make (Array.length points) false) in
  match e.tier with
  | Exhaustive sweep -> exact (curve_kernel ?pool sweep ~center darr)
  | Bnb bnb ->
      curve_bnb ?pool ~node_budget ~plans:e.plans ~initial:e.initial bnb
        ~center darr
  | Fractional ->
      exact
        (Array.of_list
           (curve_fractional ~deltas:(Array.to_list darr) ?pool ~plans:e.plans
              ~initial:e.initial ()))

let path_name ~dim =
  if Sweep.supported ~dim then "exhaustive sweep"
  else if Sweep.Bnb.supported ~dim then "branch-and-bound"
  else "linear-fractional fallback"

(* The evaluation path actually taken: the tier's name, with the count of
   [what] (grid points, or per-initial searches) that fell back past the
   node budget. *)
let describe_path e ~what ~cells ~node_budget ~fallbacks =
  match e.tier with
  | Exhaustive _ -> "exhaustive sweep"
  | Fractional -> "linear-fractional fallback"
  | Bnb _ when fallbacks = 0 -> "branch-and-bound"
  | Bnb _ ->
      Printf.sprintf
        "branch-and-bound (%d/%d %s past the %d-node budget -> \
         linear-fractional)"
        fallbacks cells what node_budget

let gtc_at_full ?pool ?(node_budget = Limits.default_bnb_node_budget) ~plans
    ~initial delta =
  (* Through the same engine as [curve], so a single-delta query is
     bit-identical to the matching curve point, including when that
     point degraded to the fractional program. *)
  let e = engine ?pool ~plans ~initial () in
  let points, _ = run ?pool ~node_budget e [| delta |] in
  (points.(0).gtc, points.(0).witness)

let gtc_at ?pool ~plans ~initial delta =
  fst (gtc_at_full ?pool ~plans ~initial delta)

let curve_with_path ?(deltas = default_deltas) ?pool
    ?(node_budget = Limits.default_bnb_node_budget) ~plans ~initial () =
  if deltas = [] then ([], path_name ~dim:(Vec.dim initial))
  else begin
    let e = engine ?pool ~plans ~initial () in
    let darr = Array.of_list deltas in
    let points, fell = run ?pool ~node_budget e darr in
    ( Array.to_list points,
      describe_path e ~what:"points" ~cells:(Array.length darr) ~node_budget
        ~fallbacks:(count_fell fell) )
  end

let curve ?deltas ?pool ~plans ~initial () =
  fst (curve_with_path ?deltas ?pool ~plans ~initial ())

let curves_with_path ?(deltas = default_deltas) ?pool
    ?(node_budget = Limits.default_bnb_node_budget) ~plans ~initials () =
  if Array.length initials = 0 then
    invalid_arg "Worst_case.curves_with_path: no initials";
  let darr = Array.of_list deltas in
  let nd = Array.length darr in
  let base = engine ?pool ~plans ~initial:initials.(0) () in
  let fallbacks = Array.make nd 0 in
  (* Initial-outer, delta-inner: each rebound engine sweeps the whole
     grid before the next, so a branch-and-bound scratch binds once per
     initial. *)
  let points =
    Array.mapi
      (fun i initial ->
        let e = if i = 0 then base else rebind base ~initial in
        let points, fell = run ?pool ~node_budget e darr in
        Array.iteri
          (fun di f -> if f then fallbacks.(di) <- fallbacks.(di) + 1)
          fell;
        points)
      initials
  in
  let total = Array.fold_left ( + ) 0 fallbacks in
  ( points,
    fallbacks,
    describe_path base ~what:"searches"
      ~cells:(Array.length initials * nd)
      ~node_budget ~fallbacks:total )

let asymptote points =
  match points with
  | [] -> `Bounded 1.
  | first :: rest ->
      (* Robust to input order: [last] is the largest-delta point and
         [before] the point one decade earlier — the *largest* delta not
         exceeding [last.delta / 10], never merely the first qualifying
         point encountered. *)
      let last =
        List.fold_left
          (fun acc p -> if p.delta > acc.delta then p else acc)
          first rest
      in
      let threshold = last.delta /. 10. *. 1.0001 in
      let before =
        List.fold_left
          (fun acc p ->
            if p.delta <= threshold then
              match acc with
              | Some q when q.delta >= p.delta -> acc
              | _ -> Some p
            else acc)
          None points
      in
      let growth =
        match before with
        | Some p when p.gtc > 0. -> last.gtc /. p.gtc
        | _ -> 1.
      in
      if growth < 3. then `Bounded last.gtc
      else `Quadratic (last.gtc /. (last.delta *. last.delta))
