(** The narrow optimizer interface.

    Commercial optimizers do not expose resource usage vectors; they
    expose an EXPLAIN facility reporting the chosen plan (identifiable
    uniquely) and its estimated total cost (Section 7.1).  The paper's
    methodology recovers usage vectors from this interface alone by
    least-squares estimation over multiple cost vectors (Section 6.1.1).

    This module deliberately restricts {!Optimizer} to that contract so
    the probing algorithms can be written — and validated — against the
    same interface the paper had.  Unlike the paper's idealized setting,
    the interface can also {e misbehave}: a {!Qsens_faults.Fault}
    injector attached at creation makes calls fail, time out, lose
    cached plans, or answer with noisy costs — deterministically under a
    fixed seed — so the resilient probing pipeline can be validated
    under adversarial conditions. *)

open Qsens_linalg
open Qsens_plan
open Qsens_faults

type t

val create : ?faults:Fault.injector -> Env.t -> Query.t -> t
(** Without [faults], every call succeeds and answers exactly (the
    legacy behaviour, with [result] types that are always [Ok]).  The
    interface holds one {!Optimizer.prepared} plan space, built on the
    first {!explain}. *)

val dim : t -> int
(** Dimension of the resource cost vectors the interface accepts. *)

val faults : t -> Fault.injector option
(** The attached injector, for transcript inspection. *)

val explain : t -> costs:Vec.t -> (string * float, Fault.error) result
(** [explain t ~costs] is the plan signature and estimated total cost of
    the estimated optimal plan under [costs] — and nothing else.  Under
    faults the call can fail ([Probe_failed]) or time out
    ([Probe_timeout]); a failed call caches nothing.  The reported cost
    may carry injected noise. *)

val recost : t -> signature:string -> costs:Vec.t -> (float, Fault.error) result
(** [recost t ~signature ~costs] is the estimated total cost of the
    previously seen plan [signature] under new [costs], as a commercial
    system allows by pinning a plan (or re-EXPLAINing with the plan
    forced).  [Error (Unknown_signature _)] if the signature is not in
    the plan cache — either never produced by {!explain}, or evicted by
    a [Cache_loss] fault.  The cache miss is a distinct case precisely
    so callers can {!repin} and retry instead of dropping the sample;
    genuine call failures surface as [Probe_failed]/[Probe_timeout]. *)

val repin : t -> signature:string -> (unit, Fault.error) result
(** Recover from a cache miss: re-EXPLAIN at the costs under which
    [signature] was first produced, repopulating the plan cache (the
    optimizer is deterministic, so the same plan is re-derived).  Counts
    as an optimizer call and is itself subject to faults.
    [Error (Unknown_signature _)] when the signature was never produced
    by a successful {!explain} — a genuine refusal the caller cannot
    recover from. *)

val calls : t -> int
(** Number of optimizer invocations so far (experiment bookkeeping);
    includes failed calls and {!repin}s, excludes {!recost}s. *)
