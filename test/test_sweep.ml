(* Tier-1 tests for the flat cost kernel (Qsens_linalg.Kernel) and the
   separable delta-sweep cache (Qsens_core.Sweep).

   The load-bearing property is *bit-identity*: [Worst_case.curve] and
   the branch-and-bound search must agree with their references in
   test/support (Qsens_oracle) down to the last IEEE bit — same gtc,
   same witness vertex, same argmax ties — sequentially and under pools
   of 1, 2 and 3 domains, including all-degenerate NaN plan sets. *)

open Qsens_core
open Qsens_linalg
open Qsens_geom
module Pool = Qsens_parallel.Pool
module Oracle = Qsens_oracle

let pool1 = Pool.create ~domains:1 ()
let pool2 = Pool.create ~domains:2 ()
let pool3 = Pool.create ~domains:3 ()

let () =
  at_exit (fun () ->
      Pool.shutdown pool1;
      Pool.shutdown pool2;
      Pool.shutdown pool3)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vec a b =
  Vec.dim a = Vec.dim b && Array.for_all2 same_float a b

let check_bits =
  Alcotest.testable (fun ppf f -> Format.fprintf ppf "%h" f) same_float

(* ------------------------------------------------------------------ *)
(* Vec micro-fixes *)

let test_dot_sub () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let x = [| 0.5; 0.25; 4. |] in
  Alcotest.check check_bits "prefix slice"
    (Vec.dot [| 1.; 2.; 3. |] x)
    (Vec.dot_sub a 0 3 x);
  Alcotest.check check_bits "inner slice"
    (Vec.dot [| 3.; 4.; 5. |] x)
    (Vec.dot_sub a 2 3 x);
  Alcotest.check check_bits "empty slice" 0. (Vec.dot_sub a 6 0 [||]);
  Alcotest.check_raises "slice out of range"
    (Invalid_argument "Vec.dot_sub: slice [4, 7) outside array of length 6")
    (fun () -> ignore (Vec.dot_sub a 4 3 x));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vec.dot_sub: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot_sub a 0 2 x))

let test_check_dims_names () =
  (* Every public binary operation must raise with its own name — not a
     shared internal one — so the failing call site is identifiable. *)
  let a = [| 1.; 2. |] and b = [| 1.; 2.; 3. |] in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument
           (Printf.sprintf "Vec.%s: dimension mismatch (2 vs 3)" name))
        (fun () -> ignore (f a b)))
    [
      ("dot", fun a b -> [| Vec.dot a b |]);
      ("add", Vec.add);
      ("sub", Vec.sub);
      ("map2", Vec.map2 ( +. ));
    ]

(* ------------------------------------------------------------------ *)
(* Kernel: packing and blocked matvec *)

let gen_matrix =
  QCheck.Gen.(
    int_range 1 9 >>= fun rows ->
    int_range 1 7 >>= fun cols ->
    pair
      (array_size (return rows)
         (array_size (return cols) (float_range (-10.) 10.)))
      (array_size (return cols) (float_range (-10.) 10.)))

let prop_matvec_bits =
  QCheck.Test.make ~count:200 ~name:"Kernel: matvec == per-row Vec.dot"
    (QCheck.make gen_matrix) (fun (plans, x) ->
      let t = Kernel.pack plans in
      let out = Vec.zero (Array.length plans) in
      Kernel.matvec t x out;
      Array.for_all2
        (fun row y ->
          same_float (Vec.dot row x) y
          && same_float (Kernel.dot_row t (Array.length plans - 1) x)
               (Vec.dot plans.(Array.length plans - 1) x))
        plans out)

let test_kernel_shapes () =
  let t = Kernel.pack [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  Alcotest.(check int) "rows" 3 (Kernel.rows t);
  Alcotest.(check int) "cols" 2 (Kernel.cols t);
  Alcotest.(check (float 0.)) "get" 4. (Kernel.get t 1 1);
  Alcotest.(check bool) "row copy" true (same_vec [| 5.; 6. |] (Kernel.row t 2));
  let empty = Kernel.pack [||] in
  Alcotest.(check int) "empty rows" 0 (Kernel.rows empty);
  Alcotest.check_raises "ragged"
    (Invalid_argument "Kernel.pack: row 1 has 1 columns, expected 2") (fun () ->
      ignore (Kernel.pack [| [| 1.; 2. |]; [| 3. |] |]));
  Alcotest.check_raises "matvec dim"
    (Invalid_argument "Kernel.matvec: vector has dimension 1, expected 2")
    (fun () -> Kernel.matvec t [| 1. |] (Vec.zero 3))

(* ------------------------------------------------------------------ *)
(* Sweep golden test: hand-computed A/B tables on the Section-4 style
   2-plan, 2-resource example. *)

let test_sweep_golden_tables () =
  (* Resources (c1, c2) = (2, 3); plan U = (1, 4), initial A = (5, 7).
     Weights u_i * c_i: plan (2, 12), initial (10, 21).  Patterns index
     bit i -> component i at c_i * delta:
       pattern 00: A = 0,      B = 2 + 12 = 14
       pattern 01: A = 2,      B = 12
       pattern 10: A = 12,     B = 2
       pattern 11: A = 14,     B = 0 *)
  let plans = [| [| 1.; 4. |]; [| 5.; 7. |] |] in
  let initial = [| 5.; 7. |] in
  let center = [| 2.; 3. |] in
  let t = Sweep.build ~plans ~initial ~center () in
  Alcotest.(check int) "dim" 2 (Sweep.dim t);
  Alcotest.(check int) "patterns" 4 (Sweep.num_patterns t);
  List.iter
    (fun (pattern, a, b) ->
      Alcotest.check check_bits
        (Printf.sprintf "A at %d" pattern)
        a
        (Sweep.plan_a t ~plan:0 ~pattern);
      Alcotest.check check_bits
        (Printf.sprintf "B at %d" pattern)
        b
        (Sweep.plan_b t ~plan:0 ~pattern))
    [ (0, 0., 14.); (1, 2., 12.); (2, 12., 2.); (3, 14., 0.) ];
  List.iter
    (fun (pattern, a, b) ->
      Alcotest.check check_bits
        (Printf.sprintf "initial A at %d" pattern)
        a
        (Sweep.initial_a t ~pattern);
      Alcotest.check check_bits
        (Printf.sprintf "initial B at %d" pattern)
        b
        (Sweep.initial_b t ~pattern))
    [ (0, 0., 31.); (1, 10., 21.); (2, 21., 10.); (3, 31., 0.) ];
  (* Vertex values at delta = 2: cost = 2A + B/2. *)
  let delta = 2. in
  let inv = 1. /. delta in
  Alcotest.check check_bits "vertex value 01" 10.
    (Sweep.vertex_value ~delta ~inv
       (Sweep.plan_a t ~plan:0 ~pattern:1)
       (Sweep.plan_b t ~plan:0 ~pattern:1));
  (* The eval result must match the direct vertex-enumeration maximum. *)
  let gtc, pattern = Sweep.eval t ~delta in
  let box = Box.around center ~delta in
  let expect, expect_k =
    let best = ref neg_infinity and bk = ref (-1) in
    for k = 0 to 3 do
      let v = Box.vertex box k in
      let r = Vec.dot initial v /. Vec.dot plans.(0) v in
      if r > !best then begin
        best := r;
        bk := k
      end
    done;
    (!best, !bk)
  in
  Alcotest.(check (float 1e-12)) "eval matches direct vertex max" expect gtc;
  Alcotest.(check int) "witness pattern" expect_k pattern

let test_sweep_pruning () =
  (* Plan 2 is dominated by plan 1 (componentwise cheaper): it must be
     pruned, leave the result unchanged, and asking for its table must
     raise.  The degenerate zero plan is never pruned. *)
  let plans = [| [| 3.; 1. |]; [| 1.; 2. |]; [| 2.; 3. |]; [| 0.; 0. |] |] in
  let initial = [| 3.; 1. |] in
  let center = [| 1.; 1. |] in
  let t = Sweep.build ~plans ~initial ~center () in
  Alcotest.(check (list int)) "kept" [ 0; 1; 3 ]
    (Array.to_list (Sweep.kept t));
  Alcotest.check_raises "pruned plan table"
    (Invalid_argument "Sweep: plan 2 was pruned") (fun () ->
      ignore (Sweep.plan_a t ~plan:2 ~pattern:0));
  let unpruned = Sweep.build ~prune:false ~plans ~initial ~center () in
  List.iter
    (fun delta ->
      let g1, k1 = Sweep.eval t ~delta in
      let g2, k2 = Sweep.eval unpruned ~delta in
      Alcotest.check check_bits "same gtc" g2 g1;
      Alcotest.(check int) "same witness pattern" k2 k1)
    [ 1.; 3.; 10.; 1000. ]

(* ------------------------------------------------------------------ *)
(* Bit-identity: kernel curve vs naive rebuild, all pool sizes *)

let gen_plan_set ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate =
  QCheck.Gen.(
    int_range dim_lo dim_hi >>= fun m ->
    int_range plans_lo plans_hi >>= fun k ->
    array_size (return k) (array_size (return m) (float_range 0.1 10.))
    >>= fun plans ->
    if not degenerate then return plans
    else
      int_range 0 (k - 1) >>= fun zi ->
      bool >>= fun zero_initial ->
      let plans = Array.map Array.copy plans in
      plans.(zi) <- Array.make m 0.;
      if zero_initial then plans.(0) <- Array.make m 0.;
      return plans)

let deltas = [ 1.; 2.; 10.; 177.; 10_000. ]

let same_points ps qs =
  List.length ps = List.length qs
  && List.for_all2
       (fun (p : Worst_case.point) (q : Worst_case.point) ->
         same_float p.delta q.delta
         && same_float p.gtc q.gtc
         && same_vec p.witness q.witness)
       ps qs

let curve_property plans =
  let initial = plans.(0) in
  let reference = Oracle.curve_naive ~deltas ~plans ~initial () in
  same_points reference (Worst_case.curve ~deltas ~plans ~initial ())
  && List.for_all
       (fun pool ->
         same_points reference
           (Worst_case.curve ~deltas ~pool ~plans ~initial ()))
       [ pool1; pool2; pool3 ]
  (* Single-delta queries must return the matching curve point bits. *)
  && List.for_all
       (fun p ->
         let open Worst_case in
         let g, w = (p.gtc, p.witness) in
         let g', w' = gtc_at_full ~plans ~initial p.delta in
         same_float g g' && same_vec w w')
       reference

(* The kernel's single-point query against the brute-force vertex scan.
   The two sum in different orders ([delta * A + B / delta] against
   per-coordinate products), so values agree within rounding rather
   than bitwise, and on exact ties (e.g. the initial plan optimal at
   every vertex) they may name different attaining vertices — hence the
   check that the kernel's witness attains the scan's value. *)
and gtc_property plans =
  let a = plans.(0) in
  let m = Array.length plans.(0) in
  let close x y =
    Float.equal x y
    || (Float.is_nan x && Float.is_nan y)
    || Float.abs (x -. y) <= 1e-12 *. Float.max 1. (Float.abs x)
  in
  let ratio_at w =
    Array.fold_left
      (fun acc p ->
        let r = Vec.dot a w /. Vec.dot p w in
        if Float.is_nan acc || r > acc then r else acc)
      nan plans
  in
  List.for_all
    (fun delta ->
      let box = Box.around (Vec.make m 1.) ~delta in
      let g, _ = Oracle.worst_case_gtc ~plans ~a box in
      List.for_all
        (fun pool ->
          let g', w' = Worst_case.gtc_at_full ?pool ~plans ~initial:a delta in
          close g g'
          && (if Float.is_nan g then same_vec (Box.center box) w'
              else close g (ratio_at w')))
        [ None; Some pool1; Some pool2; Some pool3 ])
    [ 1.; 10.; 1000. ]

let prop_curve_bits =
  QCheck.Test.make ~count:60 ~name:"curve: kernel == naive, pools 1/2/3"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    curve_property

let prop_curve_bits_degenerate =
  QCheck.Test.make ~count:60
    ~name:"curve: kernel == naive with zero-usage plans"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    curve_property

let prop_worst_case_gtc_bits =
  QCheck.Test.make ~count:60 ~name:"worst_case_gtc: kernel == naive"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:12
          ~degenerate:false))
    gtc_property

let prop_worst_case_gtc_bits_degenerate =
  QCheck.Test.make ~count:40
    ~name:"worst_case_gtc: kernel == naive, zero-usage plans"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    gtc_property

(* The fractional tier reduces each point's per-plan programs through
   Framework.worst_case_gtc_fractional, whose pooled reduce is
   left-biased: every pool size must reproduce the cell-by-cell oracle
   bit for bit, degenerate points included. *)
let fractional_property plans =
  let initial = plans.(0) in
  let reference = Oracle.curve_fractional_cells ~deltas ~plans ~initial () in
  List.for_all
    (fun pool ->
      same_points reference
        (Worst_case.curve_fractional ~deltas ?pool ~plans ~initial ()))
    [ None; Some pool1; Some pool2; Some pool3 ]

let prop_fractional_bits =
  QCheck.Test.make ~count:30
    ~name:"curve_fractional == per-cell oracle, pools 1/2/3"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    fractional_property

let test_all_degenerate () =
  (* Every plan zero-usage and a zero initial: NaN gtc with the box
     center as witness, on both paths, every pool size. *)
  let plans = [| Array.make 3 0.; Array.make 3 0. |] in
  Alcotest.(check bool) "all-degenerate curves agree" true
    (curve_property plans);
  let p =
    List.hd (Worst_case.curve ~deltas:[ 10. ] ~plans ~initial:plans.(0) ())
  in
  Alcotest.(check bool) "gtc is NaN" true (Float.is_nan p.Worst_case.gtc);
  let box = Box.around (Vec.make 3 1.) ~delta:10. in
  Alcotest.(check bool) "witness is center" true
    (same_vec (Box.center box) p.Worst_case.witness)

(* ------------------------------------------------------------------ *)
(* Branch-and-bound path (Sweep.Bnb) *)

let test_bnb_golden_node_count () =
  (* Same Section-4 style example as the golden tables; initial = plan 1,
     so plan 1 is dominated by plan 0 and pruned.  Weights: plan (2, 12),
     initial (10, 21); delta = 2 leaves (ascending pattern order):
       k=0: 15.5/7   k=1: 30.5/10 = 3.05   k=2: 47/25   k=3: 62/28.
     The Dinkelbach warm start reaches 3.05, so the seeded search visits
     exactly 5 nodes: root; clear-bit-1 node (bound 30.5/7, kept) with
     its two leaves k=0 and k=1; set-bit-1 node pruned at bound
     62/25 = 2.48 < 3.05.  Two leaves evaluated, none of the seeding
     probes counted. *)
  let plans = [| [| 1.; 4. |]; [| 5.; 7. |] |] in
  let initial = [| 5.; 7. |] in
  let center = [| 2.; 3. |] in
  let t = Sweep.Bnb.build ~plans ~initial ~center () in
  Alcotest.(check (list int)) "plan 1 pruned" [ 0 ]
    (Array.to_list (Sweep.Bnb.kept t));
  let (gtc, pattern), (nodes, leaves) =
    Sweep.Bnb.eval_with_stats t ~delta:2.
  in
  let ref_gtc, ref_pattern =
    Sweep.eval (Sweep.build ~plans ~initial ~center ()) ~delta:2.
  in
  Alcotest.check check_bits "gtc matches exhaustive" ref_gtc gtc;
  Alcotest.(check int) "witness pattern" ref_pattern pattern;
  Alcotest.(check int) "pattern is 1" 1 pattern;
  Alcotest.(check int) "visited nodes" 5 nodes;
  Alcotest.(check int) "evaluated leaves" 2 leaves

let test_limit_gates () =
  (* One constant feeds every gate; the exhaustive message names the
     branch-and-bound escape hatch. *)
  Alcotest.(check int) "sweep gate" Limits.exhaustive_max_dim Sweep.max_dim;
  Alcotest.(check int) "bnb gate" Limits.bnb_max_dim Sweep.Bnb.max_dim;
  let over = Limits.exhaustive_max_dim + 1 in
  let mk m = (Array.make m 1., Array.make m 1.) in
  let initial, center = mk over in
  Alcotest.check_raises "exhaustive gate"
    (Invalid_argument
       (Limits.exhaustive_gate_message ~who:"Sweep.build" ~dim:over))
    (fun () ->
      ignore (Sweep.build ~plans:[| initial |] ~initial ~center ()));
  let over_bnb = Limits.bnb_max_dim + 1 in
  let initial, center = mk over_bnb in
  Alcotest.check_raises "bnb gate"
    (Invalid_argument
       (Limits.bnb_gate_message ~who:"Sweep.Bnb.build" ~dim:over_bnb))
    (fun () ->
      ignore (Sweep.Bnb.build ~plans:[| initial |] ~initial ~center ()))

(* Messy (non-ones) centers: the pruned argmax must reproduce the
   exhaustive bits at every delta — including delta = 1, where both
   paths take the collapsed-box shortcut. *)
let bnb_eval_property (plans, center) =
  let initial = plans.(0) in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  List.for_all
    (fun delta ->
      let g, k = Sweep.eval sweep ~delta in
      let g', k' = Sweep.Bnb.eval bnb ~delta in
      (same_float g g' || (Float.is_nan g && Float.is_nan g')) && k = k')
    deltas

(* The forced branch-and-bound curve against the dispatcher, which
   picks the exhaustive tier at these dimensions: gtc and witnesses,
   at every pool size. *)
let bnb_curve_property plans =
  let initial = plans.(0) in
  let pruned = Oracle.curve_pruned ~deltas ~plans ~initial () in
  List.for_all
    (fun pool ->
      same_points pruned (Worst_case.curve ~deltas ?pool ~plans ~initial ()))
    [ None; Some pool1; Some pool2; Some pool3 ]

let gen_plan_set_center ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate =
  QCheck.Gen.(
    gen_plan_set ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate
    >>= fun plans ->
    array_size
      (return (Array.length plans.(0)))
      (float_range 0.1 10.)
    >>= fun center -> return (plans, center))

let prop_bnb_eval_bits =
  QCheck.Test.make ~count:60
    ~name:"Sweep.Bnb: eval == exhaustive eval, messy centers"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:10 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    bnb_eval_property

let prop_bnb_eval_bits_degenerate =
  QCheck.Test.make ~count:40
    ~name:"Sweep.Bnb: eval == exhaustive eval, zero-usage plans"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    bnb_eval_property

let prop_bnb_curve_bits =
  QCheck.Test.make ~count:40
    ~name:"curve_pruned == curve, pools 1/2/3"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:10 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    bnb_curve_property

let prop_bnb_curve_bits_degenerate =
  QCheck.Test.make ~count:30
    ~name:"curve_pruned == curve with zero-usage plans"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    bnb_curve_property

(* ------------------------------------------------------------------ *)
(* Incremental engines (the paths BENCH_kernel.json measures): the
   whole-grid evaluation and the node-pool search must reproduce the
   per-point bits exactly — cold or warm scratch, budgeted or not. *)

let grid_deltas = [| 1.; 1.5; 2.; 10.; 177.; 10_000. |]

let grid_property (plans, center) =
  let initial = plans.(0) in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let n = Array.length grid_deltas in
  let gtc = Float.Array.make n 0. in
  let patterns = Array.make n 0 in
  let scratch = Sweep.Scratch.create () in
  let ok = ref true in
  (* Two passes through one scratch: the cold fill and the warm reuse
     must both match per-point eval. *)
  for _pass = 0 to 1 do
    Sweep.eval_grid ~scratch sweep ~deltas:grid_deltas ~gtc ~patterns;
    Array.iteri
      (fun i delta ->
        let g, k = Sweep.eval sweep ~delta in
        if not (same_float g (Float.Array.get gtc i) && k = patterns.(i))
        then ok := false)
      grid_deltas
  done;
  !ok

let prop_grid_bits =
  QCheck.Test.make ~count:60
    ~name:"eval_grid == per-point eval, shared scratch"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:10 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    grid_property

let prop_grid_bits_degenerate =
  QCheck.Test.make ~count:40
    ~name:"eval_grid == per-point eval, zero-usage plans"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    grid_property

(* A Bnb scratch carries state between searches, so results must not
   depend on its history: a cold search (fresh scratch), a warm one (a
   scratch reused across every delta, as the curve sweep does) and one
   whose scratch was last bound to a different search (rebound every
   call, as when several candidates share a scratch) must agree with the
   exhaustive eval on gtc and pattern, and with each other on the
   (nodes, leaves) honesty counters — a search that visits a different
   tree is wrong even when the argmax agrees. *)
let bnb_scratch_property (plans, center) =
  let initial = plans.(0) in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  let other =
    Sweep.Bnb.rebind bnb ~initial:plans.(Array.length plans - 1)
  in
  let warm = Sweep.Bnb.Scratch.create () in
  let shared = Sweep.Bnb.Scratch.create () in
  let same_res (g, k) (g', k') =
    (same_float g g' || (Float.is_nan g && Float.is_nan g')) && k = k'
  in
  List.for_all
    (fun delta ->
      let ex = Sweep.eval sweep ~delta in
      let cold, cold_stats = Sweep.Bnb.eval_with_stats bnb ~delta in
      let hot, hot_stats = Sweep.Bnb.eval_with_stats ~scratch:warm bnb ~delta in
      ignore (Sweep.Bnb.eval ~scratch:shared other ~delta);
      let re, re_stats =
        Sweep.Bnb.eval_with_stats ~scratch:shared bnb ~delta
      in
      same_res ex cold && same_res cold hot && same_res cold re
      && cold_stats = hot_stats && cold_stats = re_stats)
    deltas

let prop_bnb_scratch_bits =
  QCheck.Test.make ~count:60
    ~name:"Sweep.Bnb: warm, cold and rebound scratch == exhaustive"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:10 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    bnb_scratch_property

let prop_bnb_scratch_bits_degenerate =
  QCheck.Test.make ~count:40
    ~name:"Sweep.Bnb: node-pool engine, zero-usage plans"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    bnb_scratch_property

let test_budget_trip_point () =
  (* Every visited node charges one unit, so with N the unbudgeted node
     count: for every allowance from zero past N, a budgeted search
     raises Exhausted exactly when the allowance is below N, having
     spent its whole allowance; otherwise it spends exactly N and its
     answer is the unbudgeted one, bit for bit — with a cold scratch and
     with a warm one alike. *)
  let module B = Qsens_budget.Budget in
  let plans =
    [| [| 1.; 4.; 2.; 7. |]; [| 5.; 1.; 1.; 2. |]; [| 2.; 2.; 2.; 2. |] |]
  in
  let initial = plans.(0) in
  let center = [| 1.; 2.; 0.5; 3. |] in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  let warm = Sweep.Bnb.Scratch.create () in
  let run ?scratch ~allowance ~delta () =
    let budget = B.create allowance in
    let outcome =
      match Sweep.Bnb.eval ?scratch ~budget bnb ~delta with
      | res -> Some res
      | exception B.Exhausted _ -> None
    in
    (outcome, B.spent budget)
  in
  List.iter
    (fun delta ->
      let (g, k), (nodes, _) = Sweep.Bnb.eval_with_stats bnb ~delta in
      Alcotest.(check bool)
        (Printf.sprintf "delta %g searches" delta)
        true (nodes > 0);
      for allowance = 0 to nodes + 1 do
        List.iter
          (fun (label, scratch) ->
            let what =
              Printf.sprintf "delta %g allowance %d %s" delta allowance label
            in
            match run ?scratch ~allowance ~delta () with
            | None, spent ->
                Alcotest.(check bool) (what ^ ": trips below N") true
                  (allowance < nodes);
                Alcotest.(check int) (what ^ ": spends the allowance")
                  allowance spent
            | Some (g', k'), spent ->
                Alcotest.(check bool) (what ^ ": finishes from N") true
                  (allowance >= nodes);
                Alcotest.(check int) (what ^ ": spends N") nodes spent;
                Alcotest.check check_bits (what ^ ": gtc") g g';
                Alcotest.(check int) (what ^ ": pattern") k k')
          [ ("cold", None); ("warm", Some warm) ]
      done)
    [ 1.; 2.; 100. ]

(* ------------------------------------------------------------------ *)
(* Adversarial near-ties: plan pairs whose vertex values differ only in
   the last few ulps.  Swapping two components of a plan ties its vertex
   sums exactly at the patterns symmetric in those components; a
   relative perturbation of ~1e-15 turns the ties into near-ties, the
   worst case for both the argmax tie-breaking (bit-identity must still
   hold) and the branch-and-bound pruning (bounds cannot separate the
   pair, so the search degenerates toward full enumeration — the node
   blowup we log below). *)

let bnb_blowup = ref (0, 0, 0) (* worst (dim, nodes, exhaustive vertices) *)

let gen_near_tie_pair =
  QCheck.Gen.(
    int_range 4 (min 10 Sweep.max_dim) >>= fun m ->
    array_size (return m) (float_range 0.5 2.) >>= fun base ->
    int_range 0 (m - 1) >>= fun i ->
    int_range 0 (m - 1) >>= fun j ->
    float_range (-1e-15) 1e-15 >>= fun eps ->
    bool >>= fun perturb_initial ->
    let near = Array.copy base in
    let tmp = near.(i) in
    near.(i) <- near.(j);
    near.(j) <- tmp;
    Array.iteri (fun k x -> near.(k) <- x *. (1. +. eps)) near;
    let initial =
      if perturb_initial then Array.map (fun x -> x *. (1. -. eps)) base
      else base
    in
    return ([| base; near |], initial))

let near_tie_property (plans, initial) =
  let m = Array.length initial in
  let center = Vec.make m 1. in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  let scratch = Sweep.Bnb.Scratch.create () in
  List.for_all
    (fun delta ->
      let g, k = Sweep.eval sweep ~delta in
      let (g', k'), (nodes, _leaves) =
        Sweep.Bnb.eval_with_stats bnb ~delta
      in
      (* Near-ties are the worst case for the node-pool engine too: the
         bounds cannot separate the pair, so the walk-down loop and the
         cached bound-table selection get no help from pruning. *)
      let gf, kf = Sweep.Bnb.eval ~scratch bnb ~delta in
      let _, worst, _ = !bnb_blowup in
      if nodes > worst then
        bnb_blowup := (m, nodes, Array.length (Sweep.kept sweep) * (1 lsl m));
      (same_float g g' || (Float.is_nan g && Float.is_nan g'))
      && k = k'
      && (same_float g' gf || (Float.is_nan g' && Float.is_nan gf))
      && k' = kf)
    [ 1.; 2.; 10.; 177.; 10_000. ]

let prop_near_tie_bits =
  QCheck.Test.make ~count:120
    ~name:"Sweep.Bnb: near-tie plan pairs stay bit-identical"
    (QCheck.make gen_near_tie_pair)
    near_tie_property

let test_near_tie_blowup_logged () =
  (* Runs after the property above; report how bad the adversarial
     search got so regressions in pruning are visible in the test log. *)
  let dim, nodes, vertices = !bnb_blowup in
  Alcotest.(check bool) "property visited at least one search" true (nodes > 0);
  Printf.printf
    "near-tie blowup: worst search visited %d nodes at dim %d (exhaustive \
     scan: %d plan-vertices)\n"
    nodes dim vertices

let test_bnb_beyond_exhaustive () =
  (* Above the exhaustive gate the dispatcher must route through the
     branch-and-bound path; pin it to the pre-kernel bisection semantics
     within its tolerance, and to the single-delta query bits. *)
  let m = Sweep.max_dim + 2 in
  let rand = Random.State.make [| 23; m |] in
  let plans =
    Array.init 6 (fun _ ->
        Array.init m (fun _ -> 0.1 +. Random.State.float rand 9.9))
  in
  let initial = plans.(0) in
  Alcotest.(check string)
    "path" "branch-and-bound"
    (Worst_case.path_name ~dim:m);
  let deltas = [ 1.; 10.; 1000. ] in
  let pruned = Worst_case.curve ~deltas ~plans ~initial () in
  let legacy = Worst_case.curve_fractional ~deltas ~plans ~initial () in
  List.iter2
    (fun (p : Worst_case.point) (q : Worst_case.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "gtc within bisection tol at delta %g" p.delta)
        true
        (Float.abs (p.gtc -. q.gtc) <= 1e-9 *. Float.max 1. (Float.abs q.gtc));
      let g, w = Worst_case.gtc_at_full ~plans ~initial p.delta in
      Alcotest.check check_bits "gtc_at_full matches curve" p.gtc g;
      Alcotest.(check bool) "witness matches curve" true (same_vec p.witness w))
    pruned legacy

let test_curve_matches_legacy () =
  (* The kernel curve must agree with the pre-kernel bisection path
     within its tolerance — this pins the kernel to the original
     semantics, not merely to itself. *)
  let plans = [| [| 1.; 4.; 2. |]; [| 5.; 1.; 1. |]; [| 2.; 2.; 2. |] |] in
  let initial = plans.(0) in
  let kernel = Worst_case.curve ~plans ~initial () in
  let legacy = Worst_case.curve_fractional ~plans ~initial () in
  List.iter2
    (fun (p : Worst_case.point) (q : Worst_case.point) ->
      Alcotest.check check_bits "same delta" q.delta p.delta;
      Alcotest.(check bool)
        (Printf.sprintf "gtc within bisection tol at delta %g" p.delta)
        true
        (Float.abs (p.gtc -. q.gtc) <= 1e-9 *. Float.max 1. (Float.abs q.gtc)))
    kernel legacy

(* ------------------------------------------------------------------ *)
(* Joint regret scan: Sweep.regrets against one eval per candidate.

   Plan sets mix ordinary weights with zero components, duplicates,
   dominated copies (pruned, yet still candidates), an all-zero plan
   (degenerate: the per-candidate path), weights tiny or huge enough
   that a vertex value underflows to zero or overflows to infinity at
   the grid's extreme deltas, and NaN weights (which [build] accepts),
   whose skipped ratios the joint scan must skip alike. *)

let gen_regret_plans =
  QCheck.Gen.(
    int_range 1 8 >>= fun m ->
    int_range 1 6 >>= fun k ->
    let weight =
      frequency
        [
          (12, float_range 0.1 10.);
          (2, return 0.);
          (1, oneofl [ 4e-320; 1e-310; 1e300; 1e308; Float.nan ]);
        ]
    in
    array_size (return k) (array_size (return m) weight) >>= fun base ->
    list_size (int_range 0 3)
      (pair (int_range 0 (k - 1)) (oneofl [ `Dup; `Dominated; `Zero ]))
    >>= fun edits ->
    let extra =
      List.map
        (fun (j, e) ->
          match e with
          | `Dup -> Array.copy base.(j)
          | `Dominated -> Array.map (fun x -> (x *. 2.) +. 0.5) base.(j)
          | `Zero -> Array.make m 0.)
        edits
    in
    (* Shuffled, so a copy may come before or after its original. *)
    let all = Array.append base (Array.of_list extra) in
    shuffle_a all >>= fun () -> return all)

let regret_deltas = [ 1.; 1.5; 10.; 1e4; 1e200 ]

let regrets_per_candidate t ~plans ~delta =
  Array.map
    (fun initial -> fst (Sweep.eval (Sweep.rebind t ~initial) ~delta))
    plans

let prop_regrets_bits =
  QCheck.Test.make ~count:400
    ~name:"regrets: joint scan == eval (rebind) per candidate, dims 1-8"
    (QCheck.make gen_regret_plans)
    (fun plans ->
      let center = Vec.make (Vec.dim plans.(0)) 1. in
      List.for_all
        (fun prune ->
          (* Built for an arbitrary initial: the joint scan ignores it. *)
          let t =
            Sweep.build ~prune ~plans ~initial:plans.(Array.length plans - 1)
              ~center ()
          in
          List.for_all
            (fun delta ->
              let joint = Sweep.regrets t ~delta in
              let each = regrets_per_candidate t ~plans ~delta in
              Array.length joint = Array.length each
              && Array.for_all2 same_float joint each)
            regret_deltas)
        [ true; false ])

let test_regrets_scan_and_fallback () =
  let counted plans =
    let center = Vec.make (Vec.dim plans.(0)) 1. in
    let t = Sweep.build ~plans ~initial:plans.(0) ~center () in
    Qsens_obs.Obs.start ();
    let r = Sweep.regrets t ~delta:10. in
    let snap = Qsens_obs.Obs.snapshot () in
    let spans = Qsens_obs.Obs.trace_string () in
    Qsens_obs.Obs.stop ();
    let count name =
      List.fold_left
        (fun acc (m, v) ->
          match v with
          | Qsens_obs.Obs.Vcount n when String.equal (Qsens_obs.Obs.name m) name
            ->
              acc + n
          | _ -> acc)
        0 snap
    in
    let has_span =
      let needle = "\"name\":\"sweep.regrets\"" in
      let n = String.length needle in
      let rec go i =
        i + n <= String.length spans
        && (String.equal (String.sub spans i n) needle || go (i + 1))
      in
      go 0
    in
    (r, count "sweep.regret_scans", count "sweep.evals", has_span)
  in
  let plans = [| [| 1.; 100. |]; [| 100.; 1. |]; [| 60.; 60. |] |] in
  let r, scans, evals, span = counted plans in
  Alcotest.(check int) "one joint scan" 1 scans;
  Alcotest.(check int) "no per-candidate eval" 0 evals;
  Alcotest.(check bool) "sweep.regrets span" true span;
  (* The balanced plan's worst vertex puts the first coordinate high and
     the second low: it costs 60*10 + 60/10 there, against plan 0's
     1*10 + 100/10, the cheapest plan at that vertex. *)
  Alcotest.check check_bits "balanced plan's regret"
    (Sweep.vertex_value ~delta:10. ~inv:0.1 60. 60.
    /. Sweep.vertex_value ~delta:10. ~inv:0.1 1. 100.)
    r.(2);
  let _, scans, evals, _ = counted (Array.append plans [| [| 0.; 0. |] |]) in
  Alcotest.(check int) "degenerate set: no joint scan" 0 scans;
  Alcotest.(check int) "one eval per candidate" 4 evals

let test_regrets_allocation () =
  let plans =
    Array.init 40 (fun i ->
        Array.init 6 (fun j -> 1. +. Float.of_int (((i * 7) + (j * 3)) mod 11)))
  in
  let center = Vec.make 6 1. in
  let t = Sweep.build ~plans ~initial:plans.(0) ~center () in
  let n = 50 in
  let (), minor, _ =
    Qsens_obs.Obs.measure_alloc ~n (fun () ->
        for _ = 1 to n do
          ignore (Sweep.regrets t ~delta:10. : float array)
        done)
  in
  (* The result array: 40 unboxed floats plus its header word. *)
  Alcotest.(check (float 0.)) "minor words per scan" 41. minor

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "sweep"
    [
      ( "vec",
        [
          Alcotest.test_case "dot_sub" `Quick test_dot_sub;
          Alcotest.test_case "check_dims names" `Quick test_check_dims_names;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "shapes and errors" `Quick test_kernel_shapes;
          QCheck_alcotest.to_alcotest prop_matvec_bits;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "golden tables" `Quick test_sweep_golden_tables;
          Alcotest.test_case "dominance pruning" `Quick test_sweep_pruning;
          Alcotest.test_case "all degenerate" `Quick test_all_degenerate;
          Alcotest.test_case "kernel vs legacy" `Quick test_curve_matches_legacy;
        ] );
      ( "regrets",
        [
          QCheck_alcotest.to_alcotest prop_regrets_bits;
          Alcotest.test_case "joint scan and fallback" `Quick
            test_regrets_scan_and_fallback;
          Alcotest.test_case "allocation" `Quick test_regrets_allocation;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "golden node count" `Quick
            test_bnb_golden_node_count;
          Alcotest.test_case "limit gates" `Quick test_limit_gates;
          Alcotest.test_case "beyond exhaustive gate" `Quick
            test_bnb_beyond_exhaustive;
        ] );
      qsuite "bit-identity"
        [
          prop_curve_bits;
          prop_curve_bits_degenerate;
          prop_worst_case_gtc_bits;
          prop_worst_case_gtc_bits_degenerate;
          prop_bnb_eval_bits;
          prop_bnb_eval_bits_degenerate;
          prop_bnb_curve_bits;
          prop_bnb_curve_bits_degenerate;
          prop_fractional_bits;
        ];
      qsuite "incremental"
        [
          prop_grid_bits;
          prop_grid_bits_degenerate;
          prop_bnb_scratch_bits;
          prop_bnb_scratch_bits_degenerate;
        ];
      ( "budget",
        [
          Alcotest.test_case "trip point at the node count" `Quick
            test_budget_trip_point;
        ] );
      ( "near-tie",
        [
          QCheck_alcotest.to_alcotest prop_near_tie_bits;
          Alcotest.test_case "node blowup logged" `Quick
            test_near_tie_blowup_logged;
        ] );
    ]
