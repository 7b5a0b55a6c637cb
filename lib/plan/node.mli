(** Physical plan nodes, annotated with cardinality and resource usage.

    Every constructor computes the node's cumulative {e resource usage
    vector} — the [U] of the paper's framework (Section 3.2): how many
    seeks and page transfers the plan performs on each device, and how
    many CPU instructions it executes.  The scalar cost of a plan under a
    resource cost vector [C] is just [U . C]; the optimizer prunes with
    that dot product, and the sensitivity analysis perturbs [C] without
    re-costing plans.

    The cost model follows the conventions of System-R-style optimizers:

    - sequential scans pay one seek per 64-page extent plus one transfer
      per page;
    - index access pays a positioning seek plus matching leaf transfers
      (non-leaf levels are assumed buffered);
    - unclustered row fetches are estimated with the Cardenas/Yao
      distinct-page formula, with buffer-pool reuse for objects that fit
      in the pool;
    - sorts and hash joins that exceed the sort heap spill sorted runs or
      partitions to the {e temp} device — the source of the paper's
      "temp complementary" plans (Section 5.6);
    - CPU instruction counts per row/probe/comparison come from
      {!Qsens_cost.Defaults}. *)

open Qsens_catalog
open Qsens_linalg

type order = (string * string) option
(** [(alias, column)] the output stream is sorted on, if any. *)

type access_kind =
  | Table_scan
  | Index_range of {
      index : Index.t;
      match_sel : float;  (** fraction of entries satisfying the matching predicate *)
      index_only : bool;  (** no fetch: the key covers every needed column *)
    }

type op =
  | Access of { alias : string; kind : access_kind }
  | Block_nlj of { outer : t; inner : t; rescans : float }
  | Index_nlj of {
      outer : t;
      inner_alias : string;
      index : Index.t;
      join : Query.join;
      index_only : bool;
    }
  | Hash_join of { build : t; probe : t; spilled : bool }
  | Merge_join of { left : t; right : t }
  | Sort of { input : t; key : order; spilled : bool }
  | Group_agg of { input : t; hash : bool; spilled : bool }

and t = private {
  op : op;
  aliases : string list;  (** sorted aliases covered by this subtree *)
  card : float;  (** estimated output rows *)
  width : int;  (** bytes per output row *)
  usage : Vec.t;  (** cumulative resource usage over [env.space] *)
  order : order;
}

type ctx = { env : Env.t; query : Query.t; est : Cardinality.t }

val make_ctx : Env.t -> Query.t -> ctx

(** {1 Constructors} *)

val table_scan : ctx -> string -> t

val index_scan : ctx -> string -> Index.t -> t option
(** [index_scan ctx alias idx] — an index-range access through [idx]: a
    matching scan when [idx]'s leading column carries a local predicate, a
    full-key scan (providing sort order) otherwise; index-only when the
    key covers all needed columns.  [None] when the access is useless
    (no matching predicate, no useful order, not covering). *)

val access_paths : ctx -> string -> t list
(** All access paths for an alias: the table scan plus every useful
    index access. *)

val block_nlj : ctx -> outer:t -> inner:t -> t

val index_nlj : ctx -> outer:t -> inner_alias:string -> Index.t -> Query.join -> t option
(** [None] if the index's leading column is not the inner join column of
    the edge, or the edge does not connect [inner_alias] to the outer. *)

val hash_join : ctx -> build:t -> probe:t -> t

val merge_join : ctx -> left:t -> right:t -> Query.join -> t option
(** Requires both inputs sorted on the edge's columns; [None] otherwise
    (callers insert {!sort} first). *)

val sort : ctx -> key:order -> t -> t

val group_agg : ctx -> hash:bool -> groups:float -> t -> t

val finalize : ctx -> t -> t
(** Applies the query's group-by / distinct / order-by on top, using hash
    aggregation. *)

val finalize_variants : ctx -> t -> t list
(** All finalization alternatives (hash vs sort aggregation, etc.); the
    optimizer picks the cheapest under its cost vector. *)

(** {1 Inspection} *)

val signature : t -> string
(** A canonical structural signature identifying the plan uniquely — the
    narrow interface of Section 6.1.1 reports this plus a scalar cost. *)

val cost : t -> Vec.t -> float
(** [cost p c] is [p.usage . c]. *)

(** {1 Usage without construction}

    Each join and sort constructor computes its node's usage with the
    matching function below, from its inputs' usage vectors and their
    cost-independent properties ([*_card], [*_width]) plus the output
    [card].  Calling the function with other input usages gives, bit for
    bit, the usage the constructor would give the same operator over
    inputs of those properties with those usages — without building
    plans.  Each writes into [into] (which must not be an input); the
    [bool] results are the [spilled] flags. *)

val block_nlj_usage :
  ctx -> outer_card:float -> outer_width:int -> inner_card:float ->
  card:float -> Vec.t -> Vec.t -> into:Vec.t -> unit

val index_nlj_usage :
  ctx -> outer_card:float -> inner_alias:string -> Index.t -> Query.join ->
  index_only:bool -> card:float -> Vec.t -> into:Vec.t -> unit

val hash_join_usage :
  ctx -> build_card:float -> build_width:int -> probe_card:float ->
  probe_width:int -> card:float -> Vec.t -> Vec.t -> into:Vec.t -> bool

val merge_join_usage :
  ctx -> left_card:float -> right_card:float -> card:float -> Vec.t ->
  Vec.t -> into:Vec.t -> unit

val sort_usage : ctx -> card:float -> width:int -> Vec.t -> into:Vec.t -> bool

val local_usage : ctx -> t -> Vec.t
(** The usage [p]'s root operator adds on top of its children's: [p.usage]
    is, in exact arithmetic, the children's usage (the inner input's
    scaled by [rescans] in a block nested-loop join) plus this vector —
    the usage functions above over all-zero inputs.  For an access path
    it is the whole usage. *)

val pp_explain : Format.formatter -> t -> unit
(** Indented operator-tree rendering (an EXPLAIN facility). *)

val constructions : int ref
(** Instrumentation counter: plan nodes constructed since program start. *)
