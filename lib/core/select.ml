open Qsens_linalg
open Qsens_geom
module Budget = Qsens_budget.Budget
module Pool = Qsens_parallel.Pool
module Obs = Qsens_obs.Obs

let m_selections = Obs.counter ~help:"plan selections computed" "select.points"

let m_budget_fallbacks =
  Obs.counter
    ~help:
      "selection regret searches where the branch-and-bound node budget \
       tripped and the linear-fractional path answered instead"
    "select.budget_fallbacks"

type point = {
  delta : float;
  classic : int;
  lec : int;
  minimax : int;
  expected : float array;
  regret : float array;
  fallbacks : int;
}

(* All selection sweeps the same boxes as the worst-case analysis:
   multiplicative error around the estimated costs, the all-ones point of
   the active group subspace. *)
let ones_center ~plans = Vec.make (Vec.dim plans.(0)) 1.

let validate ~who plans =
  if Array.length plans = 0 then invalid_arg (who ^ ": no plans");
  let dim = Vec.dim plans.(0) in
  Array.iteri
    (fun i p ->
      if Vec.dim p <> dim then
        invalid_arg
          (Printf.sprintf "%s: plan %d has dimension %d, expected %d" who i
             (Vec.dim p) dim))
    plans

let classic_index ~plans =
  validate ~who:"Select.classic_index" plans;
  Framework.optimal_index ~plans ~costs:(ones_center ~plans)

let nominal_penalty ~plans i =
  validate ~who:"Select.nominal_penalty" plans;
  let ones = ones_center ~plans in
  Vec.dot plans.(i) ones
  /. Vec.dot plans.(Framework.optimal_index ~plans ~costs:ones) ones

(* E[C_i] under the per-coordinate uniform prior over
   [c_i/delta, c_i*delta] is the interval midpoint c_i*(delta+1/delta)/2,
   so every plan's expected cost is one kernel dot against the midpoint
   vector.  For the symmetric all-ones center this scales U.c by a common
   positive factor, which is why LEC provably coincides with the classic
   choice there (DESIGN.md section 15) — the closed form is kept general
   in the center so the identity is a theorem of the inputs, not an
   assumption of the code. *)
let expected_costs ~kernel ~center ~delta =
  if delta < 1. then invalid_arg "Select.expected_costs: delta < 1";
  let half = 0.5 *. (delta +. (1. /. delta)) in
  let mid = Array.map (fun c -> c *. half) center in
  Kernel.dot_rows kernel mid

(* Lowest-index argmin with strict improvement; NaN entries are skipped
   (a NaN score never beats a finite one).  [default] answers the
   all-NaN case. *)
let argmin ~default scores =
  let best = ref nan and best_i = ref default in
  Array.iteri
    (fun i s ->
      if (not (Float.is_nan s)) && (Float.is_nan !best || s < !best) then begin
        best := s;
        best_i := i
      end)
    scores;
  !best_i

let point_of_regrets ~kernel ~center ~classic ~delta ~regret ~fallbacks =
  let expected = expected_costs ~kernel ~center ~delta in
  {
    delta;
    classic;
    lec = argmin ~default:classic expected;
    minimax = argmin ~default:classic regret;
    expected;
    regret;
    fallbacks;
  }

(* ------------------------------------------------------------------ *)
(* Per-candidate worst-case regret over the box: candidate [i]'s regret
   is the worst-case GTC with [initial := plans.(i)] against the whole
   set.  Up to the exhaustive gate every column comes from one joint
   scan per delta over one shared table (Sweep.regrets); beyond it,
   through Worst_case's branch-and-bound and fractional tiers (one
   engine build for the set, a rebind per further candidate).  Either
   way every regret column reproduces Worst_case.curve for that
   candidate bit-for-bit. *)

let regret_columns ~deltas ?pool ?node_budget ~plans ~center () =
  let dim = Vec.dim center in
  if Sweep.supported ~dim then begin
    let sweep = Sweep.build ?pool ~plans ~initial:plans.(0) ~center () in
    ( List.map (fun delta -> (Sweep.regrets sweep ~delta, 0)) deltas,
      Worst_case.path_name ~dim )
  end
  else begin
    let curves, fallbacks, path =
      Worst_case.curves_with_path ~deltas ?pool ?node_budget ~plans
        ~initials:plans ()
    in
    ( List.mapi
        (fun di _ ->
          (Array.map (fun c -> c.(di).Worst_case.gtc) curves, fallbacks.(di)))
        deltas,
      path )
  end

let curve ?(deltas = Worst_case.default_deltas) ?pool ?node_budget ~plans () =
  validate ~who:"Select.curve" plans;
  let center = ones_center ~plans in
  let kernel = Kernel.pack plans in
  let classic = Framework.optimal_index ~plans ~costs:center in
  let columns, path =
    regret_columns ~deltas ?pool ?node_budget ~plans ~center ()
  in
  Obs.add m_budget_fallbacks
    (List.fold_left (fun acc (_, f) -> acc + f) 0 columns);
  let points =
    List.map2
      (fun delta (regret, fallbacks) ->
        Obs.add m_selections 1;
        point_of_regrets ~kernel ~center ~classic ~delta ~regret ~fallbacks)
      deltas columns
  in
  (points, path)

let select ?pool ?node_budget ~plans ~delta () =
  match curve ~deltas:[ delta ] ?pool ?node_budget ~plans () with
  | [ p ], _ -> p
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Monte-Carlo floor: a seeded log-uniform sample of the box estimates
   every candidate's worst regret when the exact tiers are out of
   budget.  Classic and LEC stay exact — they are single dots — only the
   regret column is an estimate (a lower bound: sampling can only miss
   the worst vertex). *)

let estimate ?(seed = 97) ?(samples = 4096) ?budget ~plans ~delta () =
  validate ~who:"Select.estimate" plans;
  if delta < 1. then invalid_arg "Select.estimate: delta < 1";
  let center = ones_center ~plans in
  let kernel = Kernel.pack plans in
  let classic = Framework.optimal_index ~plans ~costs:center in
  let np = Array.length plans in
  let box = Box.around center ~delta in
  let st = Random.State.make [| seed |] in
  let n =
    match budget with
    | None -> samples
    | Some b ->
        (* Cooperative checkpoint, Monte_carlo-style: draw what the
           remaining allowance affords (one unit per plan ratio), never
           less than one sample, and charge it up front — capped at the
           remainder so the floor degrades instead of aborting. *)
        let n = max 1 (min samples (Budget.remaining b / max 1 np)) in
        Budget.spend b ~who:"Select.estimate"
          (min (Budget.remaining b) (n * np));
        n
  in
  let regret = Array.make np nan in
  let costs = Array.make np 0. in
  for _ = 1 to n do
    let x = Box.sample st box in
    Kernel.matvec kernel x costs;
    let best = ref infinity in
    for i = 0 to np - 1 do
      if costs.(i) < !best then best := costs.(i)
    done;
    for i = 0 to np - 1 do
      let r = costs.(i) /. !best in
      if not (Float.is_nan r) then
        if Float.is_nan regret.(i) || r > regret.(i) then regret.(i) <- r
    done
  done;
  Obs.add m_selections 1;
  point_of_regrets ~kernel ~center ~classic ~delta ~regret ~fallbacks:0
