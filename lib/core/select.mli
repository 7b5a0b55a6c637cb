(** Robust plan selection over the candidate-optimal set.

    The worst-case machinery characterizes how bad the classic
    optimizer's choice can get when storage cost parameters are wrong
    (GTC up to [delta^2], Theorem 1); this module acts on the
    characterization by comparing three decision rules over the same
    multiplicative error box [[c/delta, c*delta]^m]:

    + {b classic} — argmin of [U . c] at the estimated costs [c] (the
      all-ones point), exactly {!Framework.optimal_index};
    + {b least expected cost} (Chu-Halpern-Seshadri) — argmin of
      [E(U . C)] under the per-coordinate uniform prior over the box.
      Expectation is linear, so [E(U . C) = U . E(C)] and [E(C)] is the
      componentwise interval midpoint [c_i * (delta + 1/delta) / 2]:
      every candidate's score is one {!Qsens_linalg.Kernel} dot against
      the midpoint vector.  For the symmetric box around the estimate
      the midpoint is a common positive scaling of [c], so LEC provably
      agrees with classic — the rule only separates under asymmetric
      priors, and the closed form here makes that a visible theorem
      rather than a surprise (DESIGN.md section 15);
    + {b minimax regret} (PARQO-style penalty) — argmin over candidates
      [p] of the worst-case GTC of [p] against the whole candidate set
      over the box, i.e. [max over box of (U_p . C) / (min_q U_q . C)].
      Each candidate's regret is the worst-case GTC with
      [initial := p], so the classic candidate's column reproduces
      {!Worst_case.curve} bit-for-bit.

    {2 Tier dispatch and determinism}

    Up to {!Limits.exhaustive_max_dim} every regret column comes from
    one subset-sum table for the plan set and one joint scan per delta
    ({!Sweep.regrets}): the vertex denominator [min_q U_q . C] is shared
    by every candidate, so it is taken once per vertex rather than once
    per candidate.  Beyond the gate, regret evaluation is
    {!Worst_case.curves_with_path} with every candidate as the initial
    plan: budgeted branch-and-bound up to {!Limits.bnb_max_dim} (a
    search that trips its per-(candidate, delta) node budget degrades to
    the linear-fractional program for that cell alone, counted in
    [fallbacks]), and the linear-fractional program beyond — from one
    engine build per plan set.  Either way each regret column is
    bit-identical to {!Worst_case.curve} with that candidate as the
    initial plan.  All argmins scan in ascending
    candidate order with strict improvement and skip NaN scores, so
    selections are bit-identical across pool sizes.  At [delta = 1] the
    box is a point, every regret is the cost ratio at the estimate, and
    all three rules return the classic index. *)

open Qsens_linalg

type point = {
  delta : float;
  classic : int;  (** argmin cost at the estimated point *)
  lec : int;  (** argmin expected cost under the uniform box prior *)
  minimax : int;  (** argmin worst-case regret over the box *)
  expected : float array;  (** per-candidate [E(U . C)] *)
  regret : float array;  (** per-candidate worst-case GTC over the box *)
  fallbacks : int;
      (** regret cells where the B&B node budget tripped and the
          linear-fractional program answered instead *)
}

val curve :
  ?deltas:float list ->
  ?pool:Qsens_parallel.Pool.t ->
  ?node_budget:int ->
  plans:Vec.t array ->
  unit ->
  point list * string
(** [curve ~plans ()] scores every candidate at every delta
    (default {!Worst_case.default_deltas}) and returns the per-delta
    selections plus the evaluation path taken (the same strings the
    worst-case CLI prints, with budget-fallback counts appended).
    Raises [Invalid_argument] on an empty plan set or mismatched
    dimensions. *)

val select :
  ?pool:Qsens_parallel.Pool.t ->
  ?node_budget:int ->
  plans:Vec.t array ->
  delta:float ->
  unit ->
  point
(** Single-delta {!curve}; bit-identical to the matching curve point. *)

val estimate :
  ?seed:int ->
  ?samples:int ->
  ?budget:Qsens_budget.Budget.t ->
  plans:Vec.t array ->
  delta:float ->
  unit ->
  point
(** Monte-Carlo floor for the service's degradation ladder: [classic]
    and [expected] (hence [lec]) are exact, but [regret] is a
    lower-bound estimate from a seeded log-uniform sample of the box
    ({!Qsens_geom.Box.sample}).  With [?budget], the sample count is
    clamped to the remaining allowance (one unit per plan ratio) and
    charged up front — never raises
    {!Qsens_budget.Budget.Exhausted}. *)

val classic_index : plans:Vec.t array -> int
(** The classic optimum: {!Framework.optimal_index} at the all-ones
    estimated cost point. *)

val nominal_penalty : plans:Vec.t array -> int -> float
(** [nominal_penalty ~plans i] is candidate [i]'s cost at the estimated
    costs relative to the classic optimum's, [U_i . 1 / U_classic . 1]
    (at least 1): what choosing [i] gives up where the estimates are
    right.  Raises [Invalid_argument] on an empty plan set or
    mismatched dimensions. *)

val expected_costs :
  kernel:Kernel.t -> center:Vec.t -> delta:float -> float array
(** Per-candidate expected cost under the uniform prior over
    [Box.around center ~delta]: one {!Qsens_linalg.Kernel.dot_rows}
    against the componentwise midpoint [c_i * (delta + 1/delta) / 2].
    Raises [Invalid_argument] if [delta < 1]. *)

val point_of_regrets :
  kernel:Kernel.t ->
  center:Vec.t ->
  classic:int ->
  delta:float ->
  regret:float array ->
  fallbacks:int ->
  point
(** Assemble a selection from an externally computed regret column —
    the service's tiers evaluate regrets through their own memoized
    sweeps and must agree bit-for-bit with {!curve}; routing both
    through this single argmin keeps the tie-breaking in one place. *)
