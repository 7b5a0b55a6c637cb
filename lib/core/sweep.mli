(** Separable delta-sweep cache for the worst-case analysis.

    By Observation 2 the worst-case global relative cost over the box
    [[c_i/delta, c_i*delta]^m] is attained at a box vertex.  A vertex is a
    sign pattern [s] — component [i] sits at [c_i*delta] when bit [i] of
    the pattern is set, at [c_i/delta] otherwise — so a plan's cost there
    separates as

    {[ U . C(delta) = delta * A_s(U) + (1/delta) * B_s(U) ]}

    with [A_s = sum over set bits of u_i*c_i] and [B_s] the complementary
    sum.  The [A]/[B] tables depend only on the plan set and the box
    {e center}, never on [delta]: build them once per curve, then every
    grid point costs two vertex values ({!vertex_value}, two roundings
    each) per (plan, vertex) instead of a fresh vertex enumeration with
    full dot products.

    One subset-sum table [S] per plan stores both halves:
    [A_s = S(pattern)] and [B_s = S(complement of pattern)].

    {2 Determinism contract}

    Subset sums accumulate in ascending component-index order (the
    highest-bit recurrence), vertex values use one shared
    [(delta * a) + (b * (1/delta))] ({!vertex_value}) with [1/delta]
    computed once per [eval], and the flat argmax scans plans in ascending original index
    and patterns in ascending order with strict improvement — so results
    are bit-identical for any pool size, and identical whether the tables
    are built once or rebuilt per delta.  Dominance pruning never changes
    the result: only a lower-index, componentwise-cheaper plan with a
    positive computed total prunes, and IEEE monotonicity of the whole
    evaluation chain guarantees the pruned plan never strictly beats its
    dominator at any vertex. *)

open Qsens_linalg

type t

val max_dim : int
(** Largest supported dimension (the tables hold [2^dim] entries per
    plan); equals {!Limits.exhaustive_max_dim}.  Beyond it, callers move
    to the branch-and-bound path ({!Bnb}), and past
    {!Limits.bnb_max_dim} to the linear-fractional fallback. *)

val supported : dim:int -> bool
(** [supported ~dim] — whether {!build} accepts this dimension. *)

val build :
  ?pool:Qsens_parallel.Pool.t ->
  ?prune:bool ->
  plans:Vec.t array ->
  initial:Vec.t ->
  center:Vec.t ->
  unit ->
  t
(** [build ~plans ~initial ~center ()] precomputes the per-plan subset-sum
    tables for boxes [Box.around center ~delta] at any [delta >= 1].
    [prune] (default true) drops dominated plans (Section 4.4) from the
    argmax — result-identical by the determinism contract.  Every plan
    keeps its table, pruned ones too: {!regrets} divides each plan's
    own vertex values by the kept plans' minimum, so the table is
    [plans * 2^dim] floats.  With [?pool] the per-plan table fills run
    across domains (each plan's table is a disjoint slice, results
    bit-identical to sequential).

    Requires at least one plan, [supported ~dim:(Vec.dim center)],
    componentwise positive [center], and nonnegative [plans]/[initial];
    raises [Invalid_argument] otherwise. *)

val rebind : t -> initial:Vec.t -> t
(** [rebind t ~initial] is a sweep for the same plans, center and box
    family but a different initial plan — sharing the per-plan
    subset-sum tables, kept set and degenerate flags (which depend only
    on plans and center) and recomputing just the numerator side.
    Bit-identical to [build ~plans ~initial ~center ()] at a fraction of
    its cost; the server answers every worst_case initial from one table
    per plan set this way.  Raises [Invalid_argument] on dimension
    mismatch or a negative component. *)

val bytes : t -> int
(** Resident size in bytes, computed from the table dimensions (8 bytes
    per unboxed entry plus per-field overhead) — the honest [size_of]
    for the server's byte-budgeted caches; no marshalling involved. *)

val eval : ?budget:Qsens_budget.Budget.t -> t -> delta:float -> float * int
(** [eval t ~delta] is [(gtc, pattern)]: the worst-case GTC over
    [Box.around center ~delta] and the sign pattern of an attaining
    vertex ([Box.vertex box pattern]).  Ties break to the lowest
    (plan index, pattern) pair; NaN ratios are skipped.  [pattern = -1]
    means every plan was degenerate (plan and initial both everywhere
    zero): [gtc] is NaN and no vertex attains it — callers report the box
    center, as the fractional path does.  Raises [Invalid_argument] if
    [delta < 1].

    At [delta = 1] the box collapses to its center — every pattern names
    the same vertex up to summation order — so only pattern 0, the
    ascending scan's tie-winner, is evaluated.  {!Bnb.eval} applies the
    same shortcut, keeping the two paths bit-identical there too.

    With [?budget], each vertex about to be scanned charges one unit
    (a plan row at a time) and exhaustion raises
    {!Qsens_budget.Budget.Exhausted} — the cooperative checkpoint the
    graceful-degradation dispatchers rely on.  Budget checks never touch
    the float pipeline: a surviving eval is bit-identical to an
    unbudgeted one. *)

val regrets : ?budget:Qsens_budget.Budget.t -> t -> delta:float -> float array
(** [regrets t ~delta] is every plan's minimax regret against the whole
    set at [delta]: element [i] is bit-identical to
    [fst (eval (rebind t ~initial:plans.(i)) ~delta)], whatever
    [initial] [t] was built with.  By Observation 2 the maximum sits at
    a box vertex, so the denominator [min_q U_q . C] at a vertex is the
    same for every candidate: per sign pattern the scan takes that
    minimum over the kept plans once, then gives each plan the max over
    patterns of its own vertex value divided by it — one pass of
    [(kept + plans) * 2^dim] vertex values instead of one [eval] per
    candidate.  Correctly rounded division is monotone in the
    denominator for a nonnegative numerator, so dividing by the
    smallest denominator yields exactly the largest of the per-plan
    ratios, and pruned plans never set the minimum (DESIGN.md section
    15).  A set with a degenerate (all-zero) plan, or a vertex whose
    smallest denominator is zero or NaN, is scored one candidate at a
    time through [eval] instead, so the NaN/skip contract is
    unchanged.

    With [?budget] the scan charges one unit per vertex value it
    computes, [(kept + plans)] per pattern, before it starts (the
    per-candidate fallback charges as [eval] does); exhaustion raises
    {!Qsens_budget.Budget.Exhausted}.  The joint scan allocates nothing
    beyond the result array.  Raises [Invalid_argument] if
    [delta < 1]. *)

val vertex_value : delta:float -> inv:float -> float -> float -> float
(** [vertex_value ~delta ~inv a b] is [(delta *. a) +. (b *. inv)] — the
    vertex cost [delta*A + B/delta] with [inv = 1/delta], in exactly two
    roundings.  (Not [Float.fma]: without flambda that is a C call whose
    overhead dominates the unboxed grid scan.)  Exposed so tests and
    callers reproduce the kernel's exact bits. *)

(** Reusable buffer for {!eval_grid}'s hoisted numerator table; grows to
    the largest pattern count ever evaluated, then is reused.
    Single-owner mutable state — never share one across domains. *)
module Scratch : sig
  type t

  val create : unit -> t
end

val eval_grid :
  ?scratch:Scratch.t ->
  t ->
  deltas:float array ->
  gtc:floatarray ->
  patterns:int array ->
  unit
(** [eval_grid t ~deltas ~gtc ~patterns] evaluates the whole delta grid,
    writing [eval t ~delta:deltas.(i)] into [gtc.(i)]/[patterns.(i)] —
    bit-identical to per-point {!eval} (including the [delta = 1]
    shortcut, tie-breaking and the degenerate NaN contract), at roughly
    half the vertex-value count: the numerator vertex values are plan-independent
    and are hoisted into the scratch once per delta instead of
    recomputed per kept plan.  Steady state (warm scratch, caller-owned
    buffers) allocates zero minor-heap words per grid point — the
    figure BENCH_kernel.json records and CI gates on.  No budget: the
    degradation ladder uses per-point {!eval}.  Raises
    [Invalid_argument] if a delta is below 1 or a buffer is shorter
    than [deltas]. *)

(** {2 Introspection} (golden tests, diagnostics)

    [plan] indices refer to the original [plans] array; asking for a
    pruned plan raises [Invalid_argument]. *)

val dim : t -> int

val num_patterns : t -> int
(** [2^dim]: sign patterns per plan. *)

val kept : t -> int array
(** Original indices of the plans that survived pruning, ascending. *)

val center : t -> Vec.t

val plan_a : t -> plan:int -> pattern:int -> float
(** [A_s]: the subset sum of [u_i * c_i] over the set bits of
    [pattern]. *)

val plan_b : t -> plan:int -> pattern:int -> float
(** [B_s]: the complementary subset sum (cleared bits of [pattern]). *)

val initial_a : t -> pattern:int -> float

val initial_b : t -> pattern:int -> float

(** {2 Branch-and-bound evaluation}

    The same worst-case argmax as {!eval}, computed without the [2^dim]
    subset-sum tables: per delta, every kept plan becomes a
    {!Qsens_geom.Vertex_enum.Bnb} search whose suffix bounds come from
    ascending prefix sums of the plan weights (DESIGN.md section 12).
    Every surviving leaf re-derives the exact {!eval} ratio — ascending
    partial sums on both sides through {!vertex_value} — so wherever both
    paths are defined ([dim <= max_dim]) the results are bit-identical,
    including tie-breaking, degenerate-plan handling and the [delta = 1]
    shortcut. *)
module Bnb : sig
  type t

  val max_dim : int
  (** Largest supported dimension; equals {!Limits.bnb_max_dim}. *)

  val supported : dim:int -> bool

  val build :
    ?prune:bool ->
    plans:Vec.t array ->
    initial:Vec.t ->
    center:Vec.t ->
    unit ->
    t
  (** Same validation, dominance pruning and degenerate bookkeeping as
      the exhaustive {!build}, but only O(plans * dim) state: packed
      weights and their ascending prefix sums.  Raises
      [Invalid_argument] under the same conditions, with the dimension
      gate at {!max_dim}. *)

  val rebind : t -> initial:Vec.t -> t
  (** As the exhaustive [rebind]: same plans, center and prefix-sum
      tables, different initial — bit-identical to a fresh {!build}
      with that initial.  Recomputes the numerator prefix sums and the
      bitwise [eq]/[pinned]/[identical] tables only. *)

  val bytes : t -> int
  (** Resident size in bytes from the table dimensions; the [size_of]
      for the server's branch-and-bound cache. *)

  (** Reusable node-pool state for the search: flat unboxed spec tables
      (refilled in place per delta), the preallocated DFS stack, and the
      stats record.  A scratch binds lazily to the search it is passed
      with (rebinding, which allocates the specs, when handed a
      different one), so sweeping a grid against one search allocates
      nothing per point beyond the result pair — callers evaluating
      several searches should finish one search's grid before moving
      to the next.  Single-owner mutable state — never share one across
      domains, and never store one inside a server-cached value. *)
  module Scratch : sig
    type t

    val create : unit -> t
  end

  val eval :
    ?budget:Qsens_budget.Budget.t ->
    ?scratch:Scratch.t ->
    t ->
    delta:float ->
    float * int
  (** Bit-identical to the exhaustive [eval] (same [(gtc, pattern)],
      same ties, same [pattern = -1] degenerate contract).  The search
      runs on the node-pool engine
      ({!Qsens_geom.Vertex_enum.Bnb.Flat}) against [scratch], or a fresh
      one when none is passed; results do not depend on the scratch's
      history.  With [?budget] every visited search node charges one
      unit and exhaustion raises {!Qsens_budget.Budget.Exhausted}; the
      search is sequential, so the trip point is a pure function of
      (budget, search, delta). *)

  val eval_with_stats :
    ?budget:Qsens_budget.Budget.t ->
    ?scratch:Scratch.t ->
    t ->
    delta:float ->
    (float * int) * (int * int)
  (** [eval] plus [(nodes, leaves)] visited by the search — the honesty
      counters behind BENCH_highdim.json.  Deterministic. *)

  (** {3 Introspection} *)

  val dim : t -> int

  val kept : t -> int array
  (** Original indices of the plans that survived pruning, ascending. *)

  val center : t -> Vec.t
end
