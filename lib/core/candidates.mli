(** Discovery of candidate optimal plans (Section 6.2.1).

    Only a small subset of the optimizer's plan space can ever become the
    optimal plan as resource costs move within the feasible region; the
    analysis needs exactly that subset and its usage vectors.  Discovery
    proceeds as in the paper:

    + probe the optimizer at the estimated costs and at structured points
      of the feasible box (axis extremes, random corners);
    + for every pair of known plans, probe at the corner maximizing their
      cost ratio — where a third plan is most likely to undercut both;
    + verify completeness by subdividing the region: by Observation 3, if
      a plan is optimal at every vertex of a polytope it is optimal
      throughout, so probing the (slightly contracted) vertices of every
      known plan's region of influence either confirms the set or yields
      a new plan, and the loop repeats.

    The exact verification enumerates polytope vertices (a walk over
    feasible bases, {!Qsens_geom.Region.vertices}) and is gated on the
    hyperplane-subset count, so it runs only in low dimension; in high
    dimension (the per-table-and-index layout) discovery falls back to
    sampling rounds and reports the set as unverified — the paper
    similarly completed only 16 of 22 queries in that configuration
    (Section 8.2). *)

open Qsens_linalg
open Qsens_geom

type plan = { signature : string; eff : Vec.t }
(** A discovered candidate with its effective usage vector (active group
    subspace). *)

type result = {
  plans : plan list;  (** in discovery order *)
  initial : plan;  (** optimal plan at the estimated costs (theta = 1) *)
  verified_complete : bool;
      (** true when the Observation-3 subdivision check closed without
          finding new plans *)
  probes : int;  (** optimizer invocations consumed *)
}

val discover :
  ?seed:int ->
  ?random_corners:int ->
  ?max_pair_rounds:int ->
  ?vertex_budget:int ->
  ?max_probes:int ->
  ?pool:Qsens_parallel.Pool.t ->
  Oracle.t ->
  box:Box.t ->
  result
(** [discover oracle ~box] runs the full pipeline.  [random_corners]
    (default 64) bounds the random corner probes; [vertex_budget]
    (default 200_000) bounds the hyperplane subsets per region in the
    verification phase — [C(2m + k - 1, m)] for [k] known plans, checked
    once before phase 3 and again per region — and with it the bases the
    vertex walk may visit; when exceeded, verification downgrades to
    sampling.

    With [?pool], each verification round enumerates the
    region-of-influence vertices of all known plans concurrently; oracle
    probing stays sequential in region order, so the probe sequence,
    probe count, and discovered plan set are identical to the sequential
    run.

    Exceptions from the oracle propagate, such as
    {!Qsens_optimizer.Optimizer.Non_finite} from the white-box oracle
    when a plan's usage overflows. *)
