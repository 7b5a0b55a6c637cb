open Qsens_linalg
module Obs = Qsens_obs.Obs
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

(* ------------------------------------------------------------------ *)
(* Vertex enumeration by a breadth-first walk over feasible bases
   (DESIGN.md section 7, "The basis walk").

   A basis is an ascending [n]-subset of the constraint rows.  Each
   visited basis is accepted or rejected exactly as the hyperplane-subset
   scan decides a subset — the same raw rows, the same [Mat.solve], the
   same absolute [eps] test over every constraint — and the accepted
   bases are replayed in lexicographic order through the same dedup
   grid, so the vertex list is the scan's, bit for bit and in order.
   Which bases get visited is decided on the row-normalized system with
   a tolerance looser than the acceptance test: from a walk-feasible
   basis, every exchange whose entering row's tolerance band meets the
   edge's tolerance-feasible stretch is a neighbour, so ties and
   near-ties (degenerate and contracted vertices) are all expanded.  The
   walk only ever visits [n]-subsets, so [max_subsets] bounds it as it
   bounded the scan. *)

let m_bases = Obs.counter ~help:"bases the vertex walk visited" "vertex_enum.bases"

let m_eps_rejects =
  Obs.counter
    ~help:"walk-feasible bases the absolute-eps acceptance test rejects"
    "vertex_enum.eps_rejects"

(* The walk's tolerance, in normalized (unit-normal) units: [slack]
   acceptance slacks [eps / |normal|] per row, plus [rel] times
   [1 + sum |h_i x_i|] for the rounding of the row's terms.  Which
   neighbours to visit uses a looser band, [reach] times the larger of
   that and [rel (1 + |x|_inf)] plus the slacks: a visit is one raw
   solve, and the raw solve of an ill-conditioned basis can land inside
   the polytope although its exact vertex does not. *)
let slack = 4.
let rel = 1e-10
let reach = 10.
let grazing = 1e-6

(* Lexicographic order of equal-length ascending subsets: the scan's
   rank order. *)
let compare_bases (a : int array) b =
  let rec go i =
    if i = Array.length a then 0
    else match Int.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let vertices ?(eps = 1e-7) ?(max_subsets = 200_000) ~box hs =
  let n = Box.dim box in
  let arr = Array.of_list (hs @ Box.to_halfspaces box) in
  let count = Array.length arr in
  let total = count_subsets count n in
  if total > max_subsets then raise Too_large;
  if n = 0 || total = 0 then []
  else begin
    (* Acceptance: the raw rows, exactly as the subset scan tests them.
       Each packed row product is bit-identical to [Halfspace.eval]. *)
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
    let raw_solve basis =
      let m = Mat.init n n (fun i j -> arr.(basis.(i)).Halfspace.normal.(j)) in
      match Mat.solve m (Vec.init n (fun i -> offsets.(basis.(i)))) with
      | exception Mat.Singular -> None
      | x -> Some x
    in
    (* The walk's view: unit normals and per-row tolerances.  A zero row
       (the region's own plan repeated) holds everywhere and never
       enters a basis — every subset holding one is singular. *)
    let norm = Array.map (fun h -> Vec.norm2 h.Halfspace.normal) arr in
    let live r = norm.(r) > 0. in
    let dir =
      Array.mapi
        (fun r h ->
          if live r then Vec.scale (1. /. norm.(r)) h.Halfspace.normal
          else h.Halfspace.normal)
        arr
    in
    let off = Array.mapi (fun r o -> if live r then o /. norm.(r) else o) offsets in
    let tol =
      Array.map (fun nr -> if nr > 0. then slack *. eps /. nr else infinity) norm
    in
    let residuals x =
      Array.init count (fun r ->
          if live r then Vec.dot dir.(r) x -. off.(r) else neg_infinity)
    in
    (* Per-row rounding slack at [x]. *)
    let noise x =
      Array.init count (fun r ->
          let acc = ref 1. in
          Array.iteri (fun i a -> acc := !acc +. Float.abs (a *. x.(i))) dir.(r);
          rel *. !acc)
    in
    let bands x = Array.map2 ( +. ) tol (noise x) in
    (* The vertex of [basis] in the normalized system, and the inverse
       whose columns are its edges. *)
    let normalized basis =
      match Mat.inverse (Mat.init n n (fun i j -> dir.(basis.(i)).(j))) with
      | exception Mat.Singular -> None
      | inv -> Some (inv, Mat.mul_vec inv (Vec.init n (fun i -> off.(basis.(i)))))
    in
    (* Start: phase one from the box's low corner finds a vertex of the
       system relaxed by the walk tolerance, inside which every accepted
       point lies with [slack - 1] acceptance slacks to spare. *)
    let k = List.length hs in
    let relaxed =
      Array.init count (fun r ->
          (dir.(r), if live r then off.(r) +. tol.(r) else infinity))
    in
    let low_corner = Array.init n (fun i -> k + (2 * i) + 1) in
    match Simplex.feasible_basis ~rel relaxed low_corner with
    | Simplex.Empty -> []
    | Simplex.Stalled -> raise Too_large
    | Simplex.Vertex start ->
        (* The start's exact vertex may sit just outside the relaxed
           system it was found in: widen the tolerance to cover it. *)
        Option.iter
          (fun (_, x) ->
            let band = bands x in
            Array.iteri
              (fun r v -> if v > band.(r) then tol.(r) <- 2. *. v)
              (residuals x))
          (normalized start);
        let visited : (int array, unit) Hashtbl.t = Hashtbl.create 256 in
        let queue = Queue.create () in
        let push b =
          if not (Hashtbl.mem visited b) then begin
            Hashtbl.add visited b ();
            Queue.add b queue
          end
        in
        push start;
        let accepted = ref [] in
        let in_basis = Array.make count false in
        let dirs = Mat.of_rows (Array.to_list dir) in
        (* From a basis with residuals [res] and tolerances [band], every
           exchange along the edge that leaves row [basis.(p)]; [rate r]
           is row [r]'s rate of change along that edge. *)
        let expand basis res band p rate =
          let lp = basis.(p) in
          (* The tolerance-feasible stretch [t_lo, t_hi] of the edge.  A
             row within [grazing] of parallel to the edge does not bound
             it: the raw solve of a basis beyond such a row can land on
             either side of it. *)
          let t_lo = ref (res.(lp) -. band.(lp)) and t_hi = ref infinity in
          for r = 0 to count - 1 do
            let a = rate r and room = band.(r) -. res.(r) in
            if a > grazing then t_hi := Float.min !t_hi (room /. a)
            else if a < -.grazing then t_lo := Float.max !t_lo (room /. a)
          done;
          (* Every row whose tolerance band meets the stretch enters:
             ties, near-ties, and rows (nearly) parallel to the edge. *)
          for r = 0 to count - 1 do
            if live r && not in_basis.(r) then begin
              let a = rate r and b = band.(r) in
              let meets =
                if Float.equal a 0. then Float.abs res.(r) <= b
                else begin
                  let t1 = (-.b -. res.(r)) /. a and t2 = (b -. res.(r)) /. a in
                  Float.max !t_lo (Float.min t1 t2)
                  <= Float.min !t_hi (Float.max t1 t2)
                end
              in
              if meets then begin
                let nb = Array.copy basis in
                nb.(p) <- r;
                Array.sort Int.compare nb;
                push nb
              end
            end
          done
        in
        let visit basis =
          Obs.add m_bases 1;
          (* Acceptance is the scan's: the raw solve, then the raw test. *)
          let ok =
            match raw_solve basis with
            | Some x when satisfies_all x ->
                accepted := (basis, x) :: !accepted;
                true
            | _ -> false
          in
          (* The walk moves on from the normalized vertex: where a tiny
             coefficient of a huge raw row is the elimination's pivot, the
             raw solution can sit 1e-4 off its own hyperplanes. *)
          match normalized basis with
          | None -> ()
          | Some (inv, x) ->
              let res = residuals x and band = bands x in
              let feasible = Array.for_all2 ( <= ) res band in
              if feasible && not ok then Obs.add m_eps_rejects 1;
              if feasible || ok then begin
                Array.iter (fun r -> in_basis.(r) <- true) basis;
                (* The edge leaving [basis.(p)] is column [p] of the
                   inverse, negated. *)
                let rates = Mat.mul dirs inv in
                let wide = rel *. (1. +. Vec.norm_inf x) in
                let band =
                  Array.map2 (fun b t -> reach *. Float.max b (t +. wide)) band tol
                in
                for p = 0 to n - 1 do
                  expand basis res band p (fun r ->
                      if live r && not in_basis.(r) then -.Mat.get rates r p else 0.)
                done;
                Array.iter (fun r -> in_basis.(r) <- false) basis
              end
        in
        while not (Queue.is_empty queue) do
          visit (Queue.pop queue)
        done;
        (* Replay in lexicographic subset order through the scan's grid. *)
        let grid = Grid.create ~eps ~dim:n in
        List.sort (fun (a, _) (b, _) -> compare_bases a b) !accepted
        |> List.filter_map (fun (_, x) ->
               if Grid.mem grid x then None
               else begin
                 Grid.add grid x;
                 Some x
               end)
  end
