(** Reference implementations of the worst-case engines and the optimizer.

    Each oracle recomputes a {!Qsens_core.Worst_case} or optimizer
    result the slow, obvious way, so tests and benchmarks can hold the
    production paths to it — bit for bit where the arithmetic is the
    same, within a stated tolerance where it is not.  None of them is a
    production path. *)

open Qsens_linalg

val curve_naive :
  ?deltas:float list ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  Qsens_core.Worst_case.point list
(** Rebuilds the exhaustive sweep tables from scratch at every delta,
    dominance pruning disabled — the bit-identity reference for
    {!Qsens_core.Worst_case.curve} up to
    {!Qsens_core.Sweep.max_dim} dimensions. *)

val curve_pruned :
  ?deltas:float list ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  Qsens_core.Worst_case.point list
(** The branch-and-bound tier forced at any supported dimension: one
    {!Qsens_core.Sweep.Bnb} build, then an unbudgeted search per delta
    through one scratch.  Below the exhaustive gate every point is
    bit-identical to {!Qsens_core.Worst_case.curve}; above it, to the
    unbudgeted curve the dispatcher would compute. *)

val worst_case_gtc :
  plans:Vec.t array -> a:Vec.t -> Qsens_geom.Box.t -> float * Vec.t
(** Brute-force vertex scan (Observation 2): [max_b max_v (A . v) /
    (B . v)] over every plan [b] and every vertex [v] of the box, with
    plain {!Vec.dot}; ties to the lowest (plan, pattern), NaN ratios
    skipped, NaN at the box center when every plan is degenerate.
    Agrees with the sweep kernel within rounding (the kernel sums
    [delta * A + B / delta], this sums per-coordinate products). *)

val curve_fractional_cells :
  ?deltas:float list ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  Qsens_core.Worst_case.point list
(** The fractional curve cell by cell: one
    {!Qsens_geom.Fractional.max_ratio} per (delta, plan), reduced per
    delta in plan order with strict improvement, NaN ratios skipped,
    an all-degenerate point reported as NaN at the box center — the
    bit-identity reference for {!Qsens_core.Worst_case.curve_fractional}
    at any pool size. *)

val optimize_memo :
  ?max_bushy_side:int ->
  Qsens_plan.Env.t ->
  Qsens_plan.Query.t ->
  costs:Vec.t ->
  Qsens_optimizer.Optimizer.result
(** The System-R DP as a memo of per-subset hash tables, rebuilt and
    costed with [Vec.dot] on every call — the engine
    {!Qsens_optimizer.Optimizer} replaced.  The bit-identity reference
    for {!Qsens_optimizer.Optimizer.optimize} and
    {!Qsens_optimizer.Optimizer.best}: same plan, same usage bits, same
    [total_cost] bits. *)
