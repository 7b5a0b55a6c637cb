open Qsens_linalg
module Pool = Qsens_parallel.Pool
module Budget = Qsens_budget.Budget

exception Too_large

let count_subsets n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    (try
       for i = 1 to k do
         let next = !acc * (n - k + i) in
         if next < !acc then raise Exit;
         acc := next / i
       done
     with Exit -> acc := max_int);
    !acc
  end

(* Advance [idx] to the next [k]-subset of [0 .. n-1] in lexicographic
   order, in place; false when [idx] was the last subset. *)
let advance_subset n k idx =
  let rec bump i =
    if i < 0 then false
    else if idx.(i) < n - (k - i) then begin
      idx.(i) <- idx.(i) + 1;
      for j = i + 1 to k - 1 do
        idx.(j) <- idx.(j - 1) + 1
      done;
      true
    end
    else bump (i - 1)
  in
  bump (k - 1)

(* Combinatorial number system: the [rank]-th [k]-subset of [0 .. n-1]
   in lexicographic order.  Lets each domain of a pool start its own
   combination stream mid-sequence. *)
let nth_subset n k rank =
  if k < 1 || k > n then invalid_arg "Vertex_enum.nth_subset: bad k";
  if rank < 0 || rank >= count_subsets n k then
    invalid_arg "Vertex_enum.nth_subset: rank out of range";
  let idx = Array.make k 0 in
  let r = ref rank and lo = ref 0 in
  for i = 0 to k - 1 do
    let c = ref !lo in
    let rec settle () =
      let block = count_subsets (n - !c - 1) (k - i - 1) in
      if !r >= block then begin
        r := !r - block;
        incr c;
        settle ()
      end
    in
    settle ();
    idx.(i) <- !c;
    lo := !c + 1
  done;
  idx

(* Duplicate-vertex detection in amortised O(3^n) hash probes per
   candidate instead of the former O(V) list scan with a Vec subtraction
   per comparison.  Coordinates are quantised with [floor (x / eps)], so
   two points within [eps] in the infinity norm land in cells differing
   by at most one per dimension; probing the 3^n neighbouring cells is
   therefore exact — the predicate "some kept point lies within eps"
   is decided identically to the old linear scan. *)
module Grid = struct
  type t = {
    eps : float;
    dim : int;
    cells : (int list, Vec.t list) Hashtbl.t;
  }

  let create ~eps ~dim = { eps; dim; cells = Hashtbl.create 256 }

  let key g x =
    Array.to_list (Array.map (fun v -> int_of_float (Float.floor (v /. g.eps))) x)

  let mem g x =
    let base = Array.of_list (key g x) in
    let rec probe d acc =
      if d = g.dim then
        match Hashtbl.find_opt g.cells (List.rev acc) with
        | None -> false
        | Some ys ->
            List.exists (fun y -> Vec.norm_inf (Vec.sub x y) <= g.eps) ys
      else
        probe (d + 1) ((base.(d) - 1) :: acc)
        || probe (d + 1) (base.(d) :: acc)
        || probe (d + 1) ((base.(d) + 1) :: acc)
    in
    probe 0 []

  let add g x =
    let k = key g x in
    let prev = Option.value ~default:[] (Hashtbl.find_opt g.cells k) in
    Hashtbl.replace g.cells k (x :: prev)
end

(* ------------------------------------------------------------------ *)
(* Branch-and-bound search over box sign patterns (DESIGN.md sec. 12).

   A box vertex is a bit pattern: coordinate [i] sits at its high value
   when bit [i] is set.  The search maximizes a ratio [num(k) / den(k)]
   whose numerator and denominator are (near-)separable per coordinate:
   fixing coordinates from the highest index down, each subtree is
   bounded by [partial + suffix completion] on both sides of the ratio,
   and subtrees whose optimistic ratio cannot beat the incumbent are
   pruned.  Every surviving leaf is evaluated with the exact sweep
   kernel, so the argmax is bit-identical to exhaustive enumeration with
   that kernel: leaves are visited in ascending pattern order with
   strict improvement, specs in ascending index order — the same
   tie-breaking as a flat scan — and the bound is inflated before the
   incumbent comparison so floating-point slack in the bound arithmetic
   can only keep subtrees, never drop a strictly-better leaf. *)

module Bnb = struct
  type stats = { mutable nodes : int; mutable leaves : int }

  let fresh_stats () = { nodes = 0; leaves = 0 }

  (* Covers the floating-point gap between a bound computed by plain
     summation and a leaf computed by the exact kernel: both agree with
     the exact value to O(dim * eps) relative — orders of magnitude
     below 1e-12 — so inflating the bound before comparing with the
     incumbent can only keep subtrees the exact bound would keep. *)
  let inflate = 1. +. 1e-12

  (* The complementary-pair bound [num_bound_eq] is only valid against
     incumbents above 1 (see the module interface); the margin dwarfs
     the evaluation noise of any leaf whose exact ratio is below 1. *)
  let eq_threshold = 1. +. 1e-9

  (* ---------------------------------------------------------------- *)
  (* The search runs over unboxed state.  A recursive descent would box
     its two float arguments at every call and a leaf kernel returning a
     float would box its result; at dim 24 that is hundreds of kilowords
     of minor-heap traffic per grid point.  Here the DFS runs on an
     explicit, preallocated stack of parallel int/floatarray columns
     (the "node pool"), the leaf kernel is inlined into the loop (no
     flambda: a cross-function float return would allocate), and the
     spec's term tables are caller-owned [floatarray]s refilled in place
     per delta — so descending the frontier allocates nothing per
     node. *)
  module Flat = struct
    type spec = {
      dim : int;
      num_hi : floatarray;
      num_lo : floatarray;
      den_hi : floatarray;
      den_lo : floatarray;
      num_bound : floatarray;
      num_bound_eq : floatarray;
      den_bound : floatarray;
      pinned : bool array;
      wn : floatarray;  (* numerator leaf weights, ascending order *)
      wd : floatarray;  (* denominator leaf weights *)
      mutable identical : bool;
      mutable delta : float;
      mutable inv : float;
    }

    let make_spec ~dim =
      if dim < 0 || dim > Sys.int_size - 2 then
        invalid_arg
          (Printf.sprintf "Vertex_enum.Bnb.Flat: dimension %d out of range" dim);
      let fa () = Float.Array.make dim 0. in
      {
        dim;
        num_hi = fa ();
        num_lo = fa ();
        den_hi = fa ();
        den_lo = fa ();
        num_bound = fa ();
        num_bound_eq = fa ();
        den_bound = fa ();
        pinned = Array.make dim false;
        wn = fa ();
        wd = fa ();
        identical = false;
        delta = 1.;
        inv = 1.;
      }

    (* The DFS stack: columns of one preallocated node pool.  Depth
       strictly decreases along a path and each node pushes at most one
       pending sibling per level, so [dim + 2] slots always suffice. *)
    type stack = {
      mutable depth : int array;
      mutable pattern : int array;
      mutable pnum : floatarray;
      mutable pden : floatarray;
    }

    let make_stack () =
      {
        depth = [||];
        pattern = [||];
        pnum = Float.Array.create 0;
        pden = Float.Array.create 0;
      }

    let reserve st dim =
      let cap = dim + 2 in
      if Array.length st.depth < cap then begin
        st.depth <- Array.make cap 0;
        st.pattern <- Array.make cap 0;
        st.pnum <- Float.Array.make cap 0.;
        st.pden <- Float.Array.make cap 0.
      end

    (* Exact leaf ratio at pattern [k], used by the warm start below
       (the search loop inlines the same arithmetic). *)
    let leaf_value s k =
      let an = ref 0. and bn = ref 0. and ad = ref 0. and bd = ref 0. in
      for i = 0 to s.dim - 1 do
        if k land (1 lsl i) <> 0 then begin
          an := !an +. Float.Array.unsafe_get s.wn i;
          ad := !ad +. Float.Array.unsafe_get s.wd i
        end
        else begin
          bn := !bn +. Float.Array.unsafe_get s.wn i;
          bd := !bd +. Float.Array.unsafe_get s.wd i
        end
      done;
      ((s.delta *. !an) +. (!bn *. s.inv))
      /. ((s.delta *. !ad) +. (!bd *. s.inv))

    (* Dinkelbach warm start.  The bound terms are coordinate-separable,
       so the pattern maximizing [num - lambda * den] is computed
       greedily per coordinate; iterating [lambda := leaf value] climbs
       to a (near) maximal leaf in a handful of rounds.  The result only
       seeds the incumbent — correctness never depends on how good it
       is. *)
    let greedy_pattern s lambda =
      let k = ref 0 in
      for i = 0 to s.dim - 1 do
        if
          Float.Array.get s.num_hi i -. (lambda *. Float.Array.get s.den_hi i)
          > Float.Array.get s.num_lo i -. (lambda *. Float.Array.get s.den_lo i)
        then k := !k lor (1 lsl i)
      done;
      !k

    let seed_value s =
      let best = ref neg_infinity in
      let lambda = ref (leaf_value s 0) in
      if Float.is_finite !lambda && !lambda > 0. then best := !lambda
      else lambda := 1.;
      (try
         for _ = 1 to 8 do
           let k = greedy_pattern s !lambda in
           let v = leaf_value s k in
           if Float.equal v infinity then begin
             best := Float.max !best Float.max_float;
             raise Exit
           end;
           if Float.is_finite v && v > !best then best := v;
           if Float.is_nan v || v <= !lambda then raise Exit;
           lambda := v
         done
       with Exit -> ());
      !best

    (* The shared incumbent seed: strictly below the best leaf value
       any spec's warm start reached, so the true argmax leaf — whose
       value is at least that — still strictly improves on it and is
       recorded with its pattern.  Value-only: no pattern is attached,
       preserving first-tie-wins exactly. *)
    let shared_seed specs =
      let v =
        Array.fold_left
          (fun acc s -> Float.max acc (seed_value s))
          neg_infinity specs
      in
      if Float.is_finite v && v > 0. then
        Float.min (v *. (1. -. 1e-12)) (Float.pred v)
      else neg_infinity

    let search ?stats ?budget ~stack specs =
      let stats = match stats with Some s -> s | None -> fresh_stats () in
      if Array.length specs = 0 then (neg_infinity, -1, -1)
      else begin
        Array.iter (fun s -> reserve stack s.dim) specs;
        let seed = shared_seed specs in
        let best = ref seed and best_pat = ref (-1) and best_spec = ref (-1) in
        (* qsens-hot: begin *)
        for si = 0 to Array.length specs - 1 do
          let s = specs.(si) in
          let dim = s.dim
          and delta = s.delta
          and inv = s.inv
          and wn = s.wn
          and wd = s.wd in
          if s.identical || dim = 0 then begin
            Budget.spend_opt budget ~who:"Vertex_enum.Bnb" 1;
            stats.nodes <- stats.nodes + 1;
            stats.leaves <- stats.leaves + 1;
            (* Pattern-0 leaf, inlined (see module comment). *)
            let bn = ref 0. and bd = ref 0. in
            for i = 0 to dim - 1 do
              bn := !bn +. Float.Array.unsafe_get wn i;
              bd := !bd +. Float.Array.unsafe_get wd i
            done;
            let v =
              ((delta *. 0.) +. (!bn *. inv)) /. ((delta *. 0.) +. (!bd *. inv))
            in
            if v > !best then begin
              best := v;
              best_pat := 0;
              best_spec := si
            end
          end
          else begin
            let sd = stack.depth
            and sk = stack.pattern
            and sn = stack.pnum
            and sp = stack.pden in
            let num_hi = s.num_hi
            and num_lo = s.num_lo
            and den_hi = s.den_hi
            and den_lo = s.den_lo
            and num_bound = s.num_bound
            and num_bound_eq = s.num_bound_eq
            and den_bound = s.den_bound
            and pinned = s.pinned in
            (* The numerator-bound table depends only on whether the
               incumbent exceeds [eq_threshold], and the incumbent only
               grows — the predicate flips at most once per search, so
               re-select the table when a leaf improves [best] instead
               of re-testing at every node. *)
            let nb_tab = ref (if !best > eq_threshold then num_bound_eq else num_bound) in
            (* Preorder DFS, cleared branch first (so leaves appear in
               ascending pattern order): the walk takes its lo child
               immediately, so keep the current node in locals and only
               spill the pending hi sibling to the pool — one frame
               write per binary branch. *)
            let depth = ref (dim - 1) in
            let pattern = ref 0 in
            let pnum = ref 0. in
            let pden = ref 0. in
            let top = ref 0 in
            let walking = ref true in
            while !walking do
              (* Inlined [Budget.spend_opt]: the cross-module call is pure
                 overhead on the unbudgeted path, which pays it once per
                 node.  The charge sequence under a budget is unchanged. *)
              (match budget with
              | None -> ()
              | Some b -> Budget.spend b ~who:"Vertex_enum.Bnb" 1);
              stats.nodes <- stats.nodes + 1;
              let d = !depth in
              if d < 0 then begin
                stats.leaves <- stats.leaves + 1;
                let k = !pattern in
                let an = ref 0. and bn = ref 0. in
                let ad = ref 0. and bd = ref 0. in
                for i = 0 to dim - 1 do
                  if k land (1 lsl i) <> 0 then begin
                    an := !an +. Float.Array.unsafe_get wn i;
                    ad := !ad +. Float.Array.unsafe_get wd i
                  end
                  else begin
                    bn := !bn +. Float.Array.unsafe_get wn i;
                    bd := !bd +. Float.Array.unsafe_get wd i
                  end
                done;
                let v =
                  ((delta *. !an) +. (!bn *. inv))
                  /. ((delta *. !ad) +. (!bd *. inv))
                in
                if v > !best then begin
                  best := v;
                  best_pat := k;
                  best_spec := si;
                  if v > eq_threshold then nb_tab := num_bound_eq
                end;
                if !top > 0 then begin
                  decr top;
                  let t = !top in
                  depth := Array.unsafe_get sd t;
                  pattern := Array.unsafe_get sk t;
                  pnum := Float.Array.unsafe_get sn t;
                  pden := Float.Array.unsafe_get sp t
                end
                else walking := false
              end
              else begin
                let nb = Float.Array.unsafe_get !nb_tab d in
                (* Cross-multiplied prune test: [(n /. d) *. inflate <=
                   best] costs a division per node, and internal nodes
                   outnumber leaves ~1000:1 on deep searches.  With
                   [d >= 0] the multiplied form decides the same real
                   inequality within 2 ulps — absorbed by [inflate]'s
                   1e-12 margin — and degenerates conservatively:
                   [best = -inf] or [d = 0] make the comparison false,
                   so the subtree is kept. *)
                if
                  (!pnum +. nb) *. inflate
                  <= !best *. (!pden +. Float.Array.unsafe_get den_bound d)
                then
                  if !top > 0 then begin
                    decr top;
                    let t = !top in
                    depth := Array.unsafe_get sd t;
                    pattern := Array.unsafe_get sk t;
                    pnum := Float.Array.unsafe_get sn t;
                    pden := Float.Array.unsafe_get sp t
                  end
                  else walking := false
                else begin
                  if not (Array.unsafe_get pinned d) then begin
                    let t = !top in
                    Array.unsafe_set sd t (d - 1);
                    Array.unsafe_set sk t (!pattern lor (1 lsl d));
                    Float.Array.unsafe_set sn t
                      (!pnum +. Float.Array.unsafe_get num_hi d);
                    Float.Array.unsafe_set sp t
                      (!pden +. Float.Array.unsafe_get den_hi d);
                    top := t + 1
                  end;
                  pnum := !pnum +. Float.Array.unsafe_get num_lo d;
                  pden := !pden +. Float.Array.unsafe_get den_lo d;
                  depth := d - 1
                end
              end
            done
          end
        done;
        (* qsens-hot: end *)
        (!best, !best_pat, !best_spec)
      end
  end
end

let vertices ?(eps = 1e-7) ?(max_subsets = 200_000) ?pool hs =
  match hs with
  | [] -> []
  | h0 :: _ ->
      let n = Halfspace.dim h0 in
      let arr = Array.of_list hs in
      let count = Array.length arr in
      let total = count_subsets count n in
      if total > max_subsets then raise Too_large;
      if total = 0 then []
      else begin
        (* Packed feasibility check: one contiguous matrix of constraint
           normals, scanned row by row with early exit.  Each row product
           is bit-identical to [Halfspace.eval], so the predicate decides
           exactly as the per-halfspace [Halfspace.contains] loop. *)
        let normals = Kernel.pack (Array.map (fun h -> h.Halfspace.normal) arr) in
        let offsets = Array.map (fun h -> h.Halfspace.offset) arr in
        let satisfies_all x =
          let ok = ref true and i = ref 0 in
          while !ok && !i < count do
            if Kernel.dot_row normals !i x -. offsets.(!i) > eps then ok := false;
            incr i
          done;
          !ok
        in
        let solve idx =
          let m =
            Mat.init n n (fun i j -> (arr.(idx.(i))).Halfspace.normal.(j))
          in
          let b = Vec.init n (fun i -> (arr.(idx.(i))).Halfspace.offset) in
          match Mat.solve m b with
          | exception Mat.Singular -> None
          | x -> if satisfies_all x then Some x else None
        in
        (* Candidate vertices for [len] consecutive subsets starting at
           [start], in rank order; pure, so chunks run concurrently. *)
        let candidates ~start ~len =
          let acc = ref [] in
          if len > 0 then begin
            let idx = nth_subset count n start in
            let remaining = ref len in
            let more = ref true in
            while !remaining > 0 && !more do
              (match solve idx with
              | Some x -> acc := x :: !acc
              | None -> ());
              decr remaining;
              if !remaining > 0 then more := advance_subset count n idx
            done
          end;
          List.rev !acc
        in
        let streams =
          match pool with
          | Some p when Pool.domains p > 1 && total > 1 ->
              let chunks = Pool.auto_chunks ~domains:(Pool.domains p) ~n:total in
              let parts = Array.make chunks [] in
              Pool.run p
                (Array.init chunks (fun c ->
                     let lo, hi = Pool.chunk_bounds ~n:total ~chunks c in
                     (* qsens-lint: disable=P001; qsens-check: disable=C001 — each task writes only its own chunk slot *)
                     fun () -> parts.(c) <- candidates ~start:lo ~len:(hi - lo)));
              Array.to_list parts
          | _ -> [ candidates ~start:0 ~len:total ]
        in
        (* Merge in chunk order: the concatenation of chunk streams is
           the full lexicographic candidate stream, so the greedy dedup
           below returns exactly the sequential result. *)
        let grid = Grid.create ~eps ~dim:n in
        let out = ref [] in
        List.iter
          (List.iter (fun x ->
               if not (Grid.mem grid x) then begin
                 Grid.add grid x;
                 out := x :: !out
               end))
          streams;
        List.rev !out
      end
