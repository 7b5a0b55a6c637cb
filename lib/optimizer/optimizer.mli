(** A System-R-style cost-based query optimizer.

    Dynamic programming over connected subsets of the join graph, with
    bushy trees, four join methods (block nested loops, index nested
    loops, sort-merge, hash), multiple access paths per table, and
    interesting-order bookkeeping for merge joins.  Plans are costed with
    a {e linear additive cost model}: every plan carries a resource usage
    vector [U] and its estimated total cost under resource costs [C] is
    [U . C] — exactly the optimizer contract the paper requires
    (Section 7.1) and the model used by commercial optimizers such as the
    DB2 8.1 optimizer characterized in the paper.

    Sensitivity analysis asks the optimizer the same question at many
    cost vectors, and only the argmin moves with [C]: the memo slots,
    their alternatives and every operator's local usage do not.  So the
    plan space is {!prepare}d once per (environment, query) and each
    {!best} call re-costs it in one allocation-free bottom-up pass, then
    builds the winning plan through the {!Node} constructors.  The
    result is bit-identical to rebuilding the whole DP at every call.

    The full result (including the usage vector) is the {e white-box}
    interface; {!Narrow} restricts it to what a commercial EXPLAIN
    facility exposes. *)

open Qsens_linalg
open Qsens_plan

type result = {
  plan : Node.t;
  total_cost : float;  (** [plan.usage . costs] *)
  signature : string;
}

type prepared
(** The plan space of one query in one environment.  It is enumerated on
    the first {!best} call, so holding one costs nothing until then.
    Safe to share between domains. *)

val prepare : ?max_bushy_side:int -> Env.t -> Query.t -> prepared
(** [max_bushy_side] (default 2) bounds the smaller side of a bushy
    join. *)

val best : prepared -> costs:Vec.t -> result
(** [best p ~costs] is the plan minimizing estimated total cost under the
    resource cost vector [costs] (the estimated optimal plan of Section
    3.3).  Raises [Invalid_argument] if [costs] does not match the
    layout's resource space, or [Failure] for queries with no
    relations. *)

val optimize : ?max_bushy_side:int -> Env.t -> Query.t -> costs:Vec.t -> result
(** One-shot [best (prepare env q) ~costs]. *)

val cost_of_plan : Node.t -> Vec.t -> float
(** Re-cost an existing plan under different resource costs (the paper's
    "what would this plan cost if the true costs were C" primitive). *)

val candidate_access_paths : Env.t -> Query.t -> string -> Node.t list
(** Exposed for tests: the access paths considered for an alias. *)
