(** Orchestration of the paper's experiments (Sections 7 and 8).

    An experiment fixes a query, a storage layout policy and a grouping
    scheme, then: discovers the candidate optimal plans over the feasible
    cost region, computes the worst-case global-relative-cost curve of
    the initial plan (one line of Figure 5, 6 or 7), and takes the
    Section-8.2 census of the candidate set (complementary-pair
    classification, element ratios, the Theorem-2 bound). *)

open Qsens_linalg
open Qsens_catalog
open Qsens_cost
open Qsens_plan
open Qsens_optimizer
open Qsens_faults

exception
  Narrow_estimation_failed of {
    signature : string option;  (** [None]: the initial EXPLAIN failed *)
    error : Fault.error;  (** which failure occurred — see {!Fault.error} *)
  }
(** Raised by the narrow oracle when usage estimation fails after all
    configured retries.  The payload reports {e which} of the previously
    conflated causes occurred (too few observations, singular system,
    interface refusal, open circuit, …) and for which plan. *)

type setup = {
  env : Env.t;
  groups : Groups.t;
  query : Query.t;
  proj : Projection.t;  (** active group dimensions for this query *)
  base : Vec.t;  (** base (estimated) resource costs *)
  dims : Complementary.dim_kind array;  (** kinds of the active dims *)
}

val scheme_for : Layout.policy -> Groups.scheme
(** Figure 5 varies d_s, d_t and CPU independently ({!Groups.Per_resource});
    the multi-device experiments scale whole devices ({!Groups.Per_device}). *)

val setup :
  ?buffer_pages:float ->
  ?sort_heap_pages:float ->
  schema:Schema.t ->
  policy:Layout.policy ->
  Query.t ->
  setup

val expand_theta : setup -> Vec.t -> Vec.t
(** Map an active-subspace multiplier vector to a full resource cost
    vector (inactive groups pinned at multiplier 1). *)

val white_box_oracle : setup -> Oracle.t
(** Probes our optimizer directly.  The oracle holds one
    {!Optimizer.prepared} plan space, built on its first probe.  A probe
    raises {!Optimizer.Non_finite} when the plan's usage is not finite
    (a scale factor beyond float range). *)

val narrow_oracle :
  ?seed:int ->
  ?faults:Fault.injector ->
  ?retry:Fault.Retry.policy ->
  ?breaker:Fault.Breaker.t ->
  setup ->
  box:Qsens_geom.Box.t ->
  Oracle.t * Narrow.t
(** An oracle that sees only plan signatures and scalar costs, recovering
    usage vectors by least-squares (Section 6.1.1).  [faults] injects
    deterministic faults into the narrow interface; when present, the
    oracle defaults to {!Fault.Retry.default} and robust (Huber)
    fitting, so transient faults are absorbed rather than fatal.
    Unrecoverable failures raise {!Narrow_estimation_failed} with the
    typed cause. *)

type census = {
  pairs : int;
  complementary_pairs : int;
  near_pairs : int;
  by_kind : (Complementary.kind * int) list;
      (** how many (near-)complementary pairs exhibit each cause *)
  max_element_ratio : float;  (** largest finite ratio over pairs *)
  theorem2 : float;  (** the constant bound when no pair is complementary *)
}

val census_of : setup -> Candidates.plan list -> census

type report = {
  query_name : string;
  policy : Layout.policy;
  active_dim : int;
  candidates : Candidates.result;
  curve : Worst_case.point list;
  path : string;
      (** the evaluation path the curve actually took, including any
          per-point budget degradation ({!Worst_case.curve_with_path}) *)
  census : census;
}

val run :
  ?deltas:float list ->
  ?seed:int ->
  ?narrow:bool ->
  ?faults:Fault.injector ->
  ?retry:Fault.Retry.policy ->
  ?breaker:Fault.Breaker.t ->
  ?random_corners:int ->
  ?max_probes:int ->
  ?pool:Qsens_parallel.Pool.t ->
  setup ->
  report
(** Full pipeline.  [narrow] (default false) drives discovery through the
    narrow interface instead of the white box.  [faults] implies the
    narrow path (faults are injected at the narrow interface) with
    retries and robust fitting; see {!narrow_oracle}.  The discovery box
    spans the largest delta of [deltas] (default
    {!Worst_case.default_deltas}).  [?pool] parallelizes candidate
    verification and the worst-case curve across domains; results are
    identical to the sequential run. *)
