(** Vertex enumeration for H-polytopes in low dimension.

    A region of influence (Section 4.5) is the intersection of switchover
    half-spaces with the feasible cost region — a convex polytope.  The
    candidate-plan completeness check of Section 6.2.1 probes the
    optimizer at (slightly contracted) vertices of these polytopes.  This
    module enumerates them by a breadth-first walk over feasible bases,
    whose cost grows with the vertices that exist rather than with the
    hyperplane subsets that could define one; higher-dimensional layouts
    fall back to sampling (see {!Qsens_core}). *)

open Qsens_linalg

exception Too_large
(** Raised when the number of hyperplane subsets exceeds the
    [max_subsets] budget. *)

val vertices :
  ?eps:float -> ?max_subsets:int -> box:Box.t -> Halfspace.t list -> Vec.t list
(** [vertices ~box hs] enumerates the vertices of [{ x in box | h . x <=
    o for all (h, o) in hs }].  The constraint rows are [hs @
    Box.to_halfspaces box]; a vertex is an [n]-subset of them whose
    system {!Mat.solve} solves to a point satisfying every row within
    [eps] (default [1e-7], absolute, on the raw rows).  Duplicates
    (within [eps], infinity norm) are merged through a grid hash in
    lexicographic subset order.  The list is bit-identical, in length
    and order, to solving every subset in lexicographic order — the
    reference scan kept in the test support — while visiting only the
    bases a walk from a phase-one vertex reaches (DESIGN.md section 7).

    Raises [Too_large] if [C(|hs| + 2n, n) > max_subsets] (default
    [200_000]) — the walk never visits more bases than that — or, never
    seen in practice, if phase one stalls.

    Counters: [vertex_enum.bases] (bases visited) and
    [vertex_enum.eps_rejects] (bases within the walk's normalized
    tolerance that the absolute [eps] test rejects — true vertices lost
    to the rounding of large raw rows; see ROADMAP). *)

(** {2 Branch-and-bound vertex search}

    Maximizes a ratio [num(k) / den(k)] over box sign patterns
    [k] in [0 .. 2^dim - 1] without enumerating them all: coordinates
    are fixed one at a time from the highest index down, each subtree is
    bounded optimistically from the per-coordinate suffix bounds, and
    subtrees that cannot beat the incumbent are pruned.  Replaces the
    [2^dim] wall of the worst-case GTC path (DESIGN.md section 12). *)
module Bnb : sig
  type stats = { mutable nodes : int; mutable leaves : int }
  (** Visited bound-check nodes and evaluated leaves.  Deterministic:
      a pure function of the specs. *)

  val fresh_stats : unit -> stats

  (** {2 Node-pool engine}

      The search runs over unboxed state: spec term tables are
      caller-owned [floatarray]s refilled in place per delta, the DFS
      runs on an explicit preallocated {!Flat.stack} instead of
      recursion (whose float arguments box at every call), and the leaf
      kernel is inlined — so descending the frontier allocates nothing
      per node. *)
  module Flat : sig
    type spec = {
      dim : int;
      num_hi : floatarray;  (** numerator term of coordinate [i], bit set *)
      num_lo : floatarray;  (** numerator term of coordinate [i], bit clear *)
      den_hi : floatarray;  (** denominator term, bit set *)
      den_lo : floatarray;  (** denominator term, bit clear *)
      num_bound : floatarray;
          (** [num_bound.(d)] bounds (from above, up to rounding covered
              by the internal inflation) the best numerator completion
              over free coordinates [0 .. d]:
              [sum of max(num_hi, num_lo) over j <= d]. *)
      num_bound_eq : floatarray;
          (** The Section-5.6 complementary-pair tightening: as
              [num_bound], but coordinates whose num and den terms are
              bitwise equal on both sides contribute their {e min} term —
              the analytic pin to the twin leaf that dominates whenever
              the ratio is at least 1.  Only consulted while the
              incumbent exceeds [1 + 1e-9]. *)
      den_bound : floatarray;
          (** [den_bound.(d)] bounds from below the least denominator
              completion: [sum of min(den_hi, den_lo) over j <= d]. *)
      pinned : bool array;
          (** Coordinates whose branches are bitwise inert (e.g. zero
              weight on both sides): never branched, fixed to the
              cleared bit — the tie-winning lower pattern. *)
      wn : floatarray;
          (** Numerator leaf weights; the leaf ratio at pattern [k] is
              [(delta * an + bn * inv) / (delta * ad + bd * inv)] with
              [an]/[bn] the ascending partial sums of [wn] over
              set/cleared bits and [ad]/[bd] likewise over [wd] — the
              exact {!Qsens_core} sweep kernel, two roundings per vertex
              value. *)
      wd : floatarray;  (** Denominator leaf weights. *)
      mutable identical : bool;
          (** All leaves share one value bitwise (numerator and
              denominator weights coincide): only pattern 0 — the
              tie-winner — is evaluated. *)
      mutable delta : float;
      mutable inv : float;  (** [1 / delta], computed once by the filler. *)
    }

    val make_spec : dim:int -> spec
    (** All tables preallocated at [dim], zero-filled; the caller fills
        them in place before each {!search}.  Raises [Invalid_argument]
        unless [0 <= dim <= Sys.int_size - 2] (a pattern is one int). *)

    type stack
    (** The preallocated node pool; grows to the largest dimension ever
        searched and is then reused.  Single-owner mutable state — never
        share one across domains. *)

    val make_stack : unit -> stack

    val search :
      ?stats:stats ->
      ?budget:Qsens_budget.Budget.t ->
      stack:stack ->
      spec array ->
      float * int * int
    (** [search ~stack specs] is [(value, pattern, spec_index)] of the
        maximal leaf ratio over all specs, ties to the lowest
        (spec, pattern) — bit-identical to scanning every leaf of every
        spec in ascending order with strict improvement.
        [(neg_infinity, -1, -1)] when no leaf compares above
        [neg_infinity] (all NaN, or no specs).

        The incumbent is pre-seeded with a value strictly below the best
        leaf a per-spec Dinkelbach warm start reaches, so near-optimal
        subtrees prune immediately; the seed carries no pattern, which
        preserves first-tie-wins.

        With [?budget], every visited node charges one unit and the
        search aborts with {!Qsens_budget.Budget.Exhausted} once the
        allowance is spent — the cooperative checkpoint behind the
        graceful-degradation dispatchers (DESIGN.md section 14).  The
        search is sequential, so the trip point is a pure function of
        (budget, specs).  Allocates no minor-heap words per visited
        node once [stack] has warmed up. *)
  end
end

val count_subsets : int -> int -> int
(** [count_subsets n k] is [C(n, k)], saturating at [max_int]. *)
