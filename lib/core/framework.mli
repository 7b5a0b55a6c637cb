(** The vector-space sensitivity framework (Sections 3–5 of the paper).

    A plan's cost under resource costs [c] is the dot product of its
    resource usage vector with [c].  All functions here are agnostic to
    whether vectors live in primitive resource space or in the group
    space of {!Qsens_cost.Groups} — the framework is the same. *)

open Qsens_linalg

val total_cost : usage:Vec.t -> costs:Vec.t -> float
(** Equation 3: [T = U . C]. *)

val relative_cost : a:Vec.t -> b:Vec.t -> costs:Vec.t -> float
(** Section 5.1: [T_rel(a, b, C) = (A . C) / (B . C)] — how many times as
    expensive plan [a] is compared to plan [b] under [C].  Unitless, and
    invariant under scaling of [C] (Observation 1). *)

val optimal_cost : plans:Vec.t array -> costs:Vec.t -> float
(** Cost of the cheapest plan of the set under [C]. *)

val optimal_index : plans:Vec.t array -> costs:Vec.t -> int
(** Index of the cheapest plan (lowest index on ties). *)

val global_relative_cost : plans:Vec.t array -> a:Vec.t -> costs:Vec.t -> float
(** Section 5.2: [GTC_rel(a, C)] — the relative cost of [a] with respect
    to the optimal plan of [plans] under [C]; how many times faster the
    query would have run had the optimizer chosen correctly.  [>= 1] when
    [a] is a member of [plans]. *)

val equicost : a:Vec.t -> b:Vec.t -> costs:Vec.t -> bool
(** Whether [costs] lies on the switchover plane of the two plans
    (Section 4.2), up to relative tolerance. *)

val worst_case_gtc_fractional :
  ?pool:Qsens_parallel.Pool.t ->
  plans:Vec.t array ->
  a:Vec.t ->
  Qsens_geom.Box.t ->
  float * Vec.t
(** [worst_case_gtc_fractional ~plans ~a box] — the maximum of
    [GTC_rel(a, .)] over the feasible cost region, with an attaining
    cost vector: [max_b max_C (A . C) / (B . C)], each inner
    maximization a linear-fractional program over the box (see
    {!Qsens_geom.Fractional}).  The worst-case analysis's
    high-dimension and budget-fallback evaluator ({!Worst_case}), and
    the honest baseline for the sweep benchmark.  Converges to the
    vertex maximum (Observation 2) within the bisection tolerance but is
    not bit-identical to the vertex paths.

    Degenerate plans (zero ratio numerator and denominator everywhere)
    are counted and skipped; when every plan is degenerate the result
    is NaN with the box center as witness.  With [?pool] the per-plan
    programs run across domains and reduce in ascending chunk order,
    ties to the lowest plan index — identical to the sequential run. *)
