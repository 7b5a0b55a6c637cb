open Qsens_linalg
module Pool = Qsens_parallel.Pool
module Obs = Qsens_obs.Obs
module Vertex_enum = Qsens_geom.Vertex_enum
module Budget = Qsens_budget.Budget

(* Same name as in Framework / Worst_case: registration is idempotent,
   all sites feed one counter. *)
let m_degenerate_ratios =
  Obs.counter
    ~help:"degenerate (NaN) plan ratios skipped in worst-case argmax"
    "wc.degenerate_ratios"

let m_plans_pruned =
  Obs.counter ~help:"plans removed by dominance pruning before table build"
    "sweep.plans_pruned"

let m_evals =
  Obs.counter ~help:"separable per-delta sweep evaluations" "sweep.evals"

let m_regret_scans =
  Obs.counter
    ~help:"joint minimax-regret scans (one per delta, every candidate at once)"
    "sweep.regret_scans"

let m_bnb_evals =
  Obs.counter ~help:"branch-and-bound worst-case evaluations" "bnb.evals"

let m_bnb_nodes =
  Obs.counter ~help:"branch-and-bound search nodes visited" "bnb.nodes"

let m_bnb_leaves =
  Obs.counter ~help:"branch-and-bound leaf ratios evaluated" "bnb.leaves"

let max_dim = Limits.exhaustive_max_dim
let supported ~dim = dim >= 1 && dim <= max_dim

(* Shared by the exhaustive and branch-and-bound builders: everything but
   the dimension gate, which differs between them. *)
let validate_inputs ~who ~plans ~initial ~center =
  let m = Vec.dim center in
  if Vec.dim initial <> m then invalid_arg (who ^ ": dimension mismatch");
  Array.iter
    (fun p -> if Vec.dim p <> m then invalid_arg (who ^ ": dimension mismatch"))
    plans;
  Array.iter
    (fun x -> if x <= 0. then invalid_arg (who ^ ": center must be > 0"))
    center;
  let check_nonneg v =
    Array.iter
      (fun x -> if x < 0. then invalid_arg (who ^ ": negative component"))
      v
  in
  check_nonneg initial;
  Array.iter check_nonneg plans

(* Dominance pruning (Section 4.4): a plan with a componentwise-cheaper
   rival can never win the argmax — monotone rounding keeps its computed
   denominator at least the rival's at every vertex, so its ratio never
   strictly exceeds the rival's.  Only lower-index dominators prune
   (preserving lowest-index tie-breaking), and only dominators whose
   computed total is positive (an all-underflow dominator could turn a
   finite ratio into a skipped NaN). *)
let dominance_kept ~prune ~plans ~totals =
  let np = Array.length plans in
  if not prune then Array.init np Fun.id
  else begin
    let keep = Array.make np true in
    for j = 1 to np - 1 do
      let i = ref 0 in
      while keep.(j) && !i < j do
        if totals.(!i) > 0. && Vec.dominates plans.(!i) plans.(j) then
          keep.(j) <- false;
        incr i
      done
    done;
    let n = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 keep in
    let kept = Array.make n 0 in
    let next = ref 0 in
    Array.iteri
      (fun j k ->
        if k then begin
          kept.(!next) <- j;
          incr next
        end)
      keep;
    kept
  end

module FA = Float.Array

type t = {
  center : Vec.t;
  dim : int;
  nv : int;
  mask : int;
  kept : int array;
  sums : floatarray;
      (* plans x 2^dim, flat and unboxed: every plan's table, pruned ones
         too, since [regrets] needs each plan's own row as a numerator;
         the argmax scans only the [kept] rows *)
  num_sums : floatarray;
  degenerate : bool array;
  initial_zero : bool;
}

let dim t = t.dim
let num_patterns t = t.nv
let kept t = Array.copy t.kept
let center t = Vec.copy t.center

let bytes t =
  (* Unboxed tables at 8 bytes per entry, boxed metadata at one word per
     element, plus fixed record/header overhead — an honest resident
     size computed from dimensions alone, with no marshalling. *)
  8
  * (FA.length t.sums + FA.length t.num_sums + Array.length t.center
    + Array.length t.kept + Array.length t.degenerate)
  + 96

(* Subset sums by the highest-bit recurrence: the entry for a pattern
   whose top bit is [i] extends the entry with that bit cleared by
   [w.(i)], so every subset accumulates its terms in ascending index
   order — the same association as an ascending fold, which keeps the
   full-pattern entry bit-identical to the [s_total] prepass sum.
   Bounds: callers pass [pos] with [pos + 2^m <= length out], so the
   fill runs on unsafe accessors. *)
let subset_sums w m out pos =
  FA.set out pos 0.;
  for i = 0 to m - 1 do
    let bit = 1 lsl i in
    let wi = Array.unsafe_get w i in
    for k = bit to (2 * bit) - 1 do
      FA.unsafe_set out (pos + k) (FA.unsafe_get out (pos + k - bit) +. wi)
    done
  done

let ascending_sum w =
  let acc = ref 0. in
  for i = 0 to Array.length w - 1 do
    acc := !acc +. w.(i)
  done;
  !acc

(* Two-rounding product-sum, NOT [Float.fma]: ocamlopt (no flambda)
   compiles [Float.fma] to a [caml_fma] C call whose call overhead
   dominates the grid scan (measured ~35% of the inner loop).  Every
   engine — per-point, grid, both branch-and-bound kernels — computes
   vertex costs through this exact expression, so cross-engine
   bit-identity is preserved by construction. *)
let vertex_value ~delta ~inv a b = (delta *. a) +. (b *. inv)

let build ?pool ?(prune = true) ~plans ~initial ~center () =
  let np = Array.length plans in
  if np = 0 then invalid_arg "Sweep.build: no plans";
  let m = Vec.dim center in
  if m < 1 then
    invalid_arg (Printf.sprintf "Sweep.build: dimension %d outside 1..%d" m max_dim);
  if not (supported ~dim:m) then
    invalid_arg (Limits.exhaustive_gate_message ~who:"Sweep.build" ~dim:m);
  validate_inputs ~who:"Sweep.build" ~plans ~initial ~center;
  Obs.with_span "sweep.build" @@ fun () ->
  let nv = 1 lsl m in
  let mask = nv - 1 in
  let weights = Array.map (fun p -> Vec.map2 ( *. ) p center) plans in
  let totals = Array.map ascending_sum weights in
  let degenerate = Array.map (fun s -> Float.equal s 0.) totals in
  let num_weights = Vec.map2 ( *. ) initial center in
  let initial_zero = Float.equal (ascending_sum num_weights) 0. in
  let kept = dominance_kept ~prune ~plans ~totals in
  Obs.add m_plans_pruned (np - Array.length kept);
  let sums = FA.make (np * nv) 0. in
  let fill lo hi =
    for p = lo to hi - 1 do
      (* qsens-check: disable=C001 — each chunk writes the disjoint [p*nv, (p+1)*nv) block of [sums] *)
      subset_sums weights.(p) m sums (p * nv)
    done
  in
  (match pool with
  | Some p when Pool.domains p > 1 && np > 1 ->
      Pool.parallel_for_chunked p ~n:np fill
  | _ -> fill 0 np);
  let num_sums = FA.make nv 0. in
  subset_sums num_weights m num_sums 0;
  {
    center = Vec.copy center;
    dim = m;
    nv;
    mask;
    kept;
    sums;
    num_sums;
    degenerate;
    initial_zero;
  }

(* Rebinding shares everything delta- and initial-independent — the
   per-plan subset-sum tables, the dominance-pruned kept set, the
   degenerate flags (all functions of [plans] and [center] alone) — and
   recomputes only the numerator side.  The result is bit-identical to a
   fresh [build] with the same [initial]: the shared tables were computed
   by exactly the code a rebuild would run.  The server's worst_case op
   leans on this to answer every initial from the one table it keeps
   per plan set. *)
let rebind t ~initial =
  if Vec.dim initial <> t.dim then
    invalid_arg "Sweep.rebind: dimension mismatch";
  Array.iter
    (fun x -> if x < 0. then invalid_arg "Sweep.rebind: negative component")
    initial;
  let num_weights = Vec.map2 ( *. ) initial t.center in
  let initial_zero = Float.equal (ascending_sum num_weights) 0. in
  let num_sums = FA.make t.nv 0. in
  subset_sums num_weights t.dim num_sums 0;
  { t with num_sums; initial_zero }

let eval ?budget t ~delta =
  if delta < 1. then invalid_arg "Sweep.eval: delta must be >= 1";
  Obs.add m_evals 1;
  let inv = 1. /. delta in
  let nv = t.nv and mask = t.mask in
  let sums = t.sums and num_sums = t.num_sums in
  let best = ref neg_infinity and best_pat = ref (-1) and degen = ref 0 in
  (* delta = 1 collapses the box to its center: every pattern names the
     same vertex, differing only in summation order.  Evaluate pattern 0
     alone — the ascending scan's tie-winner up to that ulp wobble — so
     the branch-and-bound path, which pins every branch at a collapsed
     box, stays bit-identical to this reference. *)
  let pattern_hi = if Float.equal delta 1. then 0 else nv - 1 in
  for kp = 0 to Array.length t.kept - 1 do
    let p = t.kept.(kp) in
    if t.degenerate.(p) && t.initial_zero then incr degen
    else begin
      (* Cooperative checkpoint: one unit per vertex about to be
         scanned, charged a plan row at a time.  Budget checks never
         touch the float pipeline, so a surviving eval is bit-identical
         to an unbudgeted one. *)
      Budget.spend_opt budget ~who:"Sweep.eval" (pattern_hi + 1);
      let off = p * nv in
      for k = 0 to pattern_hi do
        let den =
          vertex_value ~delta ~inv
            (FA.unsafe_get sums (off + k))
            (FA.unsafe_get sums (off + (mask lxor k)))
        in
        let num =
          vertex_value ~delta ~inv (FA.unsafe_get num_sums k)
            (FA.unsafe_get num_sums (mask lxor k))
        in
        let r = num /. den in
        (* Strict improvement: lowest (plan, pattern) wins ties and NaN
           ratios fall through, exactly like the per-plan argmax. *)
        if r > !best then begin
          best := r;
          best_pat := k
        end
      done
    end
  done;
  Obs.add m_degenerate_ratios !degen;
  if !best_pat >= 0 then (!best, !best_pat)
  else ((if !degen > 0 then nan else !best), -1)

(* ------------------------------------------------------------------ *)
(* Minimax regret in one scan.  Candidate [i]'s regret is [eval] with
   [initial := plans.(i)], whose numerator table is row [i] of [sums].
   For [num >= 0], correctly rounded division is monotone nonincreasing
   in the denominator, so the max over kept q of [fl (num / den_q)] is
   the one ratio against [den = min_q den_q]: take that min once per
   pattern and divide every numerator by it (DESIGN.md section 15).
   The min starts from the first kept row and skips NaN rivals, as the
   argmax skips their ratios.  Two cases a min cannot reproduce — a zero
   numerator over a zero min with a positive rival, and a NaN first row
   — both show as [not (den > 0.)]; they, and sets with a degenerate
   plan, are scored one candidate at a time through [eval]. *)

let row_initial t i =
  let num_sums = FA.sub t.sums (i * t.nv) t.nv in
  { t with num_sums; initial_zero = t.degenerate.(i) }

let regrets_per_candidate ?budget t ~delta =
  Array.init (Array.length t.degenerate) (fun i ->
      fst (eval ?budget (row_initial t i) ~delta))

(* A loop, not [Array.exists]: the stdlib's allocates a closure, and the
   joint scan allocates nothing beyond its result. *)
let has_degenerate t =
  let found = ref false in
  for p = 0 to Array.length t.degenerate - 1 do
    if Array.unsafe_get t.degenerate p then found := true
  done;
  !found

let regrets ?budget t ~delta =
  if delta < 1. then invalid_arg "Sweep.regrets: delta must be >= 1";
  if has_degenerate t then
    regrets_per_candidate ?budget t ~delta
  else begin
    let np = Array.length t.degenerate and kept = t.kept in
    let nkept = Array.length kept in
    let nv = t.nv and mask = t.mask and sums = t.sums in
    (* Same collapsed-box shortcut as [eval]: pattern 0 only. *)
    let pattern_hi = if Float.equal delta 1. then 0 else nv - 1 in
    (* One unit per vertex value the scan computes: a denominator per
       kept plan and a numerator per candidate, per pattern. *)
    Budget.spend_opt budget ~who:"Sweep.regrets"
      ((pattern_hi + 1) * (nkept + np));
    Obs.add m_regret_scans 1;
    Obs.enter "sweep.regrets";
    let inv = 1. /. delta in
    let res = Array.make np neg_infinity in
    let joint = ref true and k = ref 0 in
    (* qsens-hot: begin *)
    while !joint && !k <= pattern_hi do
      let kc = mask lxor !k in
      let off0 = Array.unsafe_get kept 0 * nv in
      let den =
        ref
          ((delta *. FA.unsafe_get sums (off0 + !k))
          +. (FA.unsafe_get sums (off0 + kc) *. inv))
      in
      for kp = 1 to nkept - 1 do
        let off = Array.unsafe_get kept kp * nv in
        let d =
          (delta *. FA.unsafe_get sums (off + !k))
          +. (FA.unsafe_get sums (off + kc) *. inv)
        in
        if d < !den then den := d
      done;
      if not (!den > 0.) then joint := false
      else
        for i = 0 to np - 1 do
          let off = i * nv in
          let num =
            (delta *. FA.unsafe_get sums (off + !k))
            +. (FA.unsafe_get sums (off + kc) *. inv)
          in
          let r = num /. !den in
          if r > Array.unsafe_get res i then Array.unsafe_set res i r
        done;
      incr k
    done;
    (* qsens-hot: end *)
    Obs.leave "sweep.regrets";
    if !joint then res else regrets_per_candidate ?budget t ~delta
  end

(* ------------------------------------------------------------------ *)
(* Incremental grid evaluation.  Two observations over [eval]:

   - The numerator vertex values [vertex_value ~delta ~inv
     num_sums(k) num_sums(~k)] do not depend on the plan, yet the
     per-point scan recomputes them for every kept plan.  Hoisting them
     into a per-delta buffer — carried in the caller's scratch across
     the whole grid — halves the vertex-value count.  The hoisted values
     are produced by the exact expression [eval] evaluates inline, so
     every ratio (and hence the argmax) is bit-identical.

   - All storage is unboxed and every index is in range by construction
     ([k <= mask], [off + mask < length sums]), so the scan runs on
     unsafe accessors and writes results into caller-owned buffers:
     steady state allocates zero minor-heap words per grid point
     (enforced by the bench kernel gate in CI). *)

module Scratch = struct
  type t = { mutable num : floatarray }

  let create () = { num = FA.create 0 }

  let ensure t n =
    if FA.length t.num < n then t.num <- FA.create n;
    t.num
end

let eval_grid ?scratch t ~deltas ~gtc ~patterns =
  let nd = Array.length deltas in
  if FA.length gtc < nd then
    invalid_arg "Sweep.eval_grid: gtc buffer shorter than deltas";
  if Array.length patterns < nd then
    invalid_arg "Sweep.eval_grid: patterns buffer shorter than deltas";
  (* Monomorphic validation loop: a polymorphic [Array.iter] over a float
     array boxes every element (2 minor words per delta), which would break
     the zero-allocation contract of the grid path. *)
  for i = 0 to nd - 1 do
    if Array.unsafe_get deltas i < 1. then
      invalid_arg "Sweep.eval_grid: delta must be >= 1"
  done;
  let scratch = match scratch with Some s -> s | None -> Scratch.create () in
  let nv = t.nv and mask = t.mask in
  let num_buf = Scratch.ensure scratch nv in
  let sums = t.sums and num_sums = t.num_sums in
  let kept = t.kept and degenerate = t.degenerate in
  let initial_zero = t.initial_zero in
  let nkept = Array.length kept in
  (* qsens-hot: begin *)
  for di = 0 to nd - 1 do
    let delta = Array.unsafe_get deltas di in
    Obs.add m_evals 1;
    let inv = 1. /. delta in
    (* Same collapsed-box shortcut as [eval]: pattern 0 only. *)
    let pattern_hi = if Float.equal delta 1. then 0 else nv - 1 in
    for k = 0 to pattern_hi do
      FA.unsafe_set num_buf k
        ((delta *. FA.unsafe_get num_sums k)
        +. (FA.unsafe_get num_sums (mask lxor k) *. inv))
    done;
    let best = ref neg_infinity and best_pat = ref (-1) and degen = ref 0 in
    (* Division filter: the scan is division-throughput-bound, yet almost
       no (plan, pattern) pair improves on the incumbent.  With num, den
       >= 0, [fl (num /. den) > best] implies [num > best * den] over the
       reals, and [thr = fl (best * (1 - 2^-52))] undershoots [best] by
       more than one rounding, so [fl (thr *. den) < best * den < num].
       Hence testing [not (num <= thr *. den)] (a multiply) passes every
       pair whose exact ratio beats the incumbent; only those few pay the
       division, and the update itself still compares the bit-exact
       [num /. den], preserving [eval]'s value, argmax, and tie order.
       The negated [<=] keeps NaN products conservative: [thr = -inf]
       (initial) or [thr = inf] (den = 0 incumbent) times [den = 0] is
       NaN, which must fall through to the exact division — a degenerate
       plan's [num /. 0. = inf] ratio is a real improvement. *)
    let thr = ref neg_infinity in
    for kp = 0 to nkept - 1 do
      let p = Array.unsafe_get kept kp in
      if Array.unsafe_get degenerate p && initial_zero then incr degen
      else begin
        let off = p * nv in
        for k = 0 to pattern_hi do
          let den =
            (delta *. FA.unsafe_get sums (off + k))
            +. (FA.unsafe_get sums (off + (mask lxor k)) *. inv)
          in
          let num = FA.unsafe_get num_buf k in
          if not (num <= !thr *. den) then begin
            let r = num /. den in
            if r > !best then begin
              best := r;
              best_pat := k;
              thr := r *. 0x1.fffffffffffffp-1
            end
          end
        done
      end
    done;
    Obs.add m_degenerate_ratios !degen;
    FA.unsafe_set gtc di
      (if !best_pat >= 0 then !best
       else if !degen > 0 then nan
       else !best);
    Array.unsafe_set patterns di !best_pat
  done
(* qsens-hot: end *)

let check_pattern t pattern =
  if pattern < 0 || pattern >= t.nv then
    invalid_arg
      (Printf.sprintf "Sweep: pattern %d outside 0..%d" pattern (t.nv - 1))

let kept_plan t plan =
  if plan < 0 || plan >= Array.length t.degenerate then
    invalid_arg (Printf.sprintf "Sweep: plan %d out of range" plan);
  if not (Array.exists (Int.equal plan) t.kept) then
    invalid_arg (Printf.sprintf "Sweep: plan %d was pruned" plan);
  plan

let plan_a t ~plan ~pattern =
  check_pattern t pattern;
  FA.get t.sums ((kept_plan t plan * t.nv) + pattern)

let plan_b t ~plan ~pattern =
  check_pattern t pattern;
  FA.get t.sums ((kept_plan t plan * t.nv) + (t.mask lxor pattern))

let initial_a t ~pattern =
  check_pattern t pattern;
  FA.get t.num_sums pattern

let initial_b t ~pattern =
  check_pattern t pattern;
  FA.get t.num_sums (t.mask lxor pattern)

(* ------------------------------------------------------------------ *)
(* Branch-and-bound evaluation: same worst-case GTC argmax as [eval],
   computed without the 2^dim subset-sum tables.  Per delta, every kept
   plan becomes a {!Vertex_enum.Bnb.Flat.spec} whose inlined leaf
   kernel re-derives the exact [eval] ratio — ascending-index numerator
   and denominator partial sums, each vertex value in the two roundings
   of [vertex_value] — so the result is bit-identical to the exhaustive
   sweep wherever both are defined. *)
module Bnb = struct
  let max_dim = Limits.bnb_max_dim
  let supported ~dim = dim >= 1 && dim <= max_dim

  type t = {
    center : Vec.t;
    dim : int;
    kept : int array;
    weights : float array array;  (* kept-slot indexed *)
    num_weights : float array;
    wsum : floatarray;  (* kept x (dim+1) ascending prefix sums, flat *)
    nsum : floatarray;  (* (dim+1) ascending prefix sums *)
    eq : bool array array;  (* weight bitwise equal to the initial's *)
    pinned : bool array array;  (* both weights bitwise +0. *)
    identical : bool array;  (* whole plan bitwise equal to the initial *)
    degenerate : bool array;  (* original plan indexed *)
    initial_zero : bool;
  }

  let dim t = t.dim
  let kept t = Array.copy t.kept
  let center t = Vec.copy t.center

  let bytes t =
    let m = t.dim in
    let nkept = Array.length t.kept in
    (* Unboxed prefix tables at 8 bytes per entry; boxed float rows and
       bool rows at one word per element plus one header word per row;
       fixed record overhead.  Dimensions only — no marshalling. *)
    8
    * (FA.length t.wsum + FA.length t.nsum
      + (nkept * m) + m (* weights + num_weights *)
      + (2 * nkept * m) (* eq + pinned *)
      + nkept (* identical *)
      + Array.length t.degenerate
      + nkept (* kept *) + m (* center *)
      + (4 * nkept) (* row headers *))
    + 160

  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let build ?(prune = true) ~plans ~initial ~center () =
    let np = Array.length plans in
    if np = 0 then invalid_arg "Sweep.Bnb.build: no plans";
    let m = Vec.dim center in
    if m < 1 then
      invalid_arg
        (Printf.sprintf "Sweep.Bnb.build: dimension %d outside 1..%d" m max_dim);
    if not (supported ~dim:m) then
      invalid_arg (Limits.bnb_gate_message ~who:"Sweep.Bnb.build" ~dim:m);
    validate_inputs ~who:"Sweep.Bnb.build" ~plans ~initial ~center;
    Obs.with_span "bnb.build" @@ fun () ->
    let all_weights = Array.map (fun p -> Vec.map2 ( *. ) p center) plans in
    let totals = Array.map ascending_sum all_weights in
    let degenerate = Array.map (fun s -> Float.equal s 0.) totals in
    let num_weights = Vec.map2 ( *. ) initial center in
    let initial_zero = Float.equal (ascending_sum num_weights) 0. in
    let kept = dominance_kept ~prune ~plans ~totals in
    Obs.add m_plans_pruned (np - Array.length kept);
    let weights = Array.map (fun p -> all_weights.(p)) kept in
    let wsum = Kernel.prefix_sums (Kernel.pack weights) in
    let nsum = Kernel.prefix_sums (Kernel.pack [| num_weights |]) in
    let eq =
      Array.map
        (fun w -> Array.init m (fun i -> same_bits w.(i) num_weights.(i)))
        weights
    in
    let zero_bits x = Int64.equal (Int64.bits_of_float x) 0L in
    let pinned =
      Array.map
        (fun w ->
          Array.init m (fun i -> zero_bits w.(i) && zero_bits num_weights.(i)))
        weights
    in
    let identical = Array.map (fun e -> Array.for_all Fun.id e) eq in
    {
      center = Vec.copy center;
      dim = m;
      kept;
      weights;
      num_weights;
      wsum;
      nsum;
      eq;
      pinned;
      identical;
      degenerate;
      initial_zero;
    }

  (* Same sharing argument as the exhaustive [rebind]: the packed
     weights, their prefix sums, the kept set and the degenerate flags
     depend only on [plans] and [center]; the numerator side — and the
     bitwise-comparison tables [eq]/[pinned]/[identical], which compare
     against the initial's weights — is recomputed exactly as [build]
     would, so the result is bit-identical to a fresh build. *)
  let rebind t ~initial =
    if Vec.dim initial <> t.dim then
      invalid_arg "Sweep.Bnb.rebind: dimension mismatch";
    Array.iter
      (fun x ->
        if x < 0. then invalid_arg "Sweep.Bnb.rebind: negative component")
      initial;
    let m = t.dim in
    let num_weights = Vec.map2 ( *. ) initial t.center in
    let initial_zero = Float.equal (ascending_sum num_weights) 0. in
    let nsum = Kernel.prefix_sums (Kernel.pack [| num_weights |]) in
    let eq =
      Array.map
        (fun w -> Array.init m (fun i -> same_bits w.(i) num_weights.(i)))
        t.weights
    in
    let zero_bits x = Int64.equal (Int64.bits_of_float x) 0L in
    let pinned =
      Array.map
        (fun w ->
          Array.init m (fun i -> zero_bits w.(i) && zero_bits num_weights.(i)))
        t.weights
    in
    let identical = Array.map (fun e -> Array.for_all Fun.id e) eq in
    { t with num_weights; nsum; eq; pinned; identical; initial_zero }

  (* Exact exhaustive kernel for one pattern: ascending-index partial
     sums on both sides — the same association as the subset-sum tables'
     highest-bit recurrence — through the shared [vertex_value].  Used
     by the collapsed-box shortcut; the search inlines the same
     arithmetic. *)
  let leaf_ratio ~delta ~inv ~wn ~wd k =
    let an = ref 0. and bn = ref 0. and ad = ref 0. and bd = ref 0. in
    for i = 0 to Array.length wd - 1 do
      if k land (1 lsl i) <> 0 then begin
        an := !an +. wn.(i);
        ad := !ad +. wd.(i)
      end
      else begin
        bn := !bn +. wn.(i);
        bd := !bd +. wd.(i)
      end
    done;
    vertex_value ~delta ~inv !an !bn /. vertex_value ~delta ~inv !ad !bd

  type bnb = t

  (* Reusable state for the search (Vertex_enum.Bnb.Flat):
     per-kept-slot flat specs whose delta-independent halves (leaf
     weights, pinned/identical flags) are filled when the scratch is
     bound to a search, the shared DFS stack, and the stats record.
     Binding is cached by physical identity, so sweeping a delta grid
     against one search binds once and then refills only the
     delta-dependent term tables in place — no per-point allocation
     beyond the result pair. *)
  module Scratch = struct
    module Flat = Vertex_enum.Bnb.Flat

    type t = {
      mutable src : bnb option;
      mutable slots : int array;  (* kept slots with a live spec, ascending *)
      mutable specs : Flat.spec array;
      stack : Flat.stack;
      stats : Vertex_enum.Bnb.stats;
      mutable ndegen : int;
    }

    let create () =
      {
        src = None;
        slots = [||];
        specs = [||];
        stack = Flat.make_stack ();
        stats = Vertex_enum.Bnb.fresh_stats ();
        ndegen = 0;
      }

    let bind sc (t : bnb) =
      match sc.src with
      | Some s when s == t -> ()
      | _ ->
          let nkept = Array.length t.kept in
          let m = t.dim in
          let live = ref [] and ndegen = ref 0 in
          for s = nkept - 1 downto 0 do
            if t.degenerate.(t.kept.(s)) && t.initial_zero then incr ndegen
            else live := s :: !live
          done;
          let slots = Array.of_list !live in
          let specs =
            Array.map
              (fun s ->
                let sp = Flat.make_spec ~dim:m in
                let wd = t.weights.(s) and pinned = t.pinned.(s) in
                for i = 0 to m - 1 do
                  FA.set sp.Flat.wn i t.num_weights.(i);
                  FA.set sp.Flat.wd i wd.(i);
                  sp.Flat.pinned.(i) <- pinned.(i)
                done;
                sp.Flat.identical <- t.identical.(s);
                sp)
              slots
          in
          sc.src <- Some t;
          sc.slots <- slots;
          sc.specs <- specs;
          sc.ndegen <- !ndegen

    (* Per-coordinate branch terms for the bounds, written into the
       preallocated tables: with delta >= 1 and nonnegative weights, the
       high side [delta * w] is the larger term and the low side
       [w / delta] the smaller, so suffix maxima and minima reduce to
       scaled prefix sums.  [num_bound_eq] is accumulated term by term —
       never as [delta * (total - eq_part)] — because cancellation in
       that difference could undershoot the true bound by far more than
       the search's 1e-12 inflation. *)
    let fill_delta sc (t : bnb) ~delta ~inv =
      let m = t.dim in
      let stride = m + 1 in
      let wn = t.num_weights in
      Array.iteri
        (fun idx s ->
          let sp = sc.specs.(idx) in
          let wd = t.weights.(s) and eq = t.eq.(s) in
          sp.Flat.delta <- delta;
          sp.Flat.inv <- inv;
          let acc_eq = ref 0. in
          for i = 0 to m - 1 do
            let wni = Array.unsafe_get wn i and wdi = Array.unsafe_get wd i in
            FA.unsafe_set sp.Flat.num_hi i (delta *. wni);
            FA.unsafe_set sp.Flat.num_lo i (wni *. inv);
            FA.unsafe_set sp.Flat.den_hi i (delta *. wdi);
            FA.unsafe_set sp.Flat.den_lo i (wdi *. inv);
            FA.unsafe_set sp.Flat.num_bound i
              (delta *. FA.unsafe_get t.nsum (i + 1));
            FA.unsafe_set sp.Flat.den_bound i
              (inv *. FA.unsafe_get t.wsum ((s * stride) + i + 1));
            acc_eq :=
              !acc_eq
              +. (if Array.unsafe_get eq i then wni *. inv else delta *. wni);
            FA.unsafe_set sp.Flat.num_bound_eq i !acc_eq
          done)
        sc.slots
  end

  let eval_with_stats ?budget ?scratch t ~delta =
    if delta < 1. then invalid_arg "Sweep.Bnb.eval: delta must be >= 1";
    Obs.add m_bnb_evals 1;
    let inv = 1. /. delta in
    let nkept = Array.length t.kept in
    let degen = ref 0 in
    let result =
      if Float.equal delta 1. then begin
        (* Same collapsed-box shortcut as [eval]: pattern 0 only. *)
        let best = ref neg_infinity and best_pat = ref (-1) in
        let leaves = ref 0 in
        for s = 0 to nkept - 1 do
          if t.degenerate.(t.kept.(s)) && t.initial_zero then incr degen
          else begin
            Budget.spend_opt budget ~who:"Sweep.Bnb.eval" 1;
            incr leaves;
            let r =
              leaf_ratio ~delta ~inv ~wn:t.num_weights ~wd:t.weights.(s) 0
            in
            if r > !best then begin
              best := r;
              best_pat := 0
            end
          end
        done;
        Obs.add m_bnb_nodes !leaves;
        Obs.add m_bnb_leaves !leaves;
        let res =
          if !best_pat >= 0 then (!best, !best_pat)
          else ((if !degen > 0 then nan else !best), -1)
        in
        (res, (!leaves, !leaves))
      end
      else begin
        let sc = match scratch with Some sc -> sc | None -> Scratch.create () in
        Scratch.bind sc t;
        Scratch.fill_delta sc t ~delta ~inv;
        degen := sc.Scratch.ndegen;
        let stats = sc.Scratch.stats in
        stats.Vertex_enum.Bnb.nodes <- 0;
        stats.Vertex_enum.Bnb.leaves <- 0;
        let v, pat, _ =
          Vertex_enum.Bnb.Flat.search ?budget ~stats ~stack:sc.Scratch.stack
            sc.Scratch.specs
        in
        Obs.add m_bnb_nodes stats.Vertex_enum.Bnb.nodes;
        Obs.add m_bnb_leaves stats.Vertex_enum.Bnb.leaves;
        let res =
          if pat >= 0 then (v, pat) else ((if !degen > 0 then nan else v), -1)
        in
        (res, (stats.Vertex_enum.Bnb.nodes, stats.Vertex_enum.Bnb.leaves))
      end
    in
    Obs.add m_degenerate_ratios !degen;
    result

  let eval ?budget ?scratch t ~delta =
    fst (eval_with_stats ?budget ?scratch t ~delta)
end
