(** A dense two-phase simplex solver for small linear programs.

    The sensitivity analysis needs linear programming in two places:
    deciding whether a plan is candidate optimal (is the intersection of
    its switchover half-spaces with the feasible cost region nonempty?,
    Section 4.4) and probing regions of influence (Section 6.2.1), where
    {!feasible_basis} finds the vertex the region's vertex walk starts
    from.  The programs involved have at most a few dozen variables and
    constraints, so a straightforward dense tableau implementation with
    Bland's anti-cycling rule is appropriate. *)

open Qsens_linalg

type result =
  | Optimal of Vec.t * float  (** optimal point and objective value *)
  | Unbounded
  | Infeasible

val maximize : obj:Vec.t -> constraints:(Vec.t * float) list -> result
(** [maximize ~obj ~constraints] solves

    {v max  obj . x   subject to   a_k . x <= b_k  for each constraint,
                                   x >= 0 v}

    Right-hand sides may be negative (phase one handles them). *)

val feasible : constraints:(Vec.t * float) list -> dim:int -> Vec.t option
(** [feasible ~constraints ~dim] returns a point [x >= 0] of dimension
    [dim] satisfying every [a_k . x <= b_k], or [None] if the system is
    infeasible. *)

val feasible_in_box : Box.t -> Halfspace.t list -> Vec.t option
(** [feasible_in_box box hs] returns a point of [box] satisfying every
    half-space in [hs], or [None].  The box lower bounds need not be
    nonnegative internally; the solver shifts coordinates. *)

type phase_one =
  | Vertex of int array  (** a feasible basis, ascending row indices *)
  | Empty  (** the minimum total violation is positive *)
  | Stalled  (** no feasible basis within the pivot limit *)

val feasible_basis : rel:float -> (Vec.t * float) array -> int array -> phase_one
(** [feasible_basis ~rel rows start] finds a vertex of [{ x | a . x <= b
    for every (a, b) in rows }]: [n] row indices, tight at a point [x]
    that satisfies every row within [rel * (1 + sum |a_i x_i|)]
    (rounding).  [start] is any nonsingular basis (ascending), e.g. [n]
    box facets.  Phase one on the inequality form: each pivot lowers the
    total violation, refactorizes the basis from scratch (no tableau, so
    rows that differ by 1e-10 stay distinguishable), and follows Bland's
    rule, passing over an entering row whose basis {!Mat.inverse} finds
    singular or was already left.  [Stalled] after
    [100 (rows + 1) (n + 1)] pivots, which exact arithmetic rules out,
    or when [start] is singular.  Rows should be normalized. *)
