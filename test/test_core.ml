(* Tests for the sensitivity framework: relative costs, the Theorem 1/2
   bounds, complementary classification, candidate discovery, worst-case
   curves, least-squares probing, and the end-to-end experiments. *)

open Qsens_core
open Qsens_linalg
open Qsens_geom

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Framework *)

let test_relative_cost () =
  let a = [| 2.; 0. |] and b = [| 0.; 1. |] in
  check_float "ratio" 2. (Framework.relative_cost ~a ~b ~costs:[| 1.; 1. |]);
  check_float "other costs" 4.
    (Framework.relative_cost ~a ~b ~costs:[| 2.; 1. |])

let test_scale_invariance () =
  (* Observation 1: T_rel(a, b, kC) = T_rel(a, b, C). *)
  let a = [| 3.; 1.; 7. |] and b = [| 1.; 2.; 5. |] in
  let c = [| 0.5; 2.; 9. |] in
  check_float "invariant" (Framework.relative_cost ~a ~b ~costs:c)
    (Framework.relative_cost ~a ~b ~costs:(Vec.scale 17. c))

let test_gtc () =
  let plans = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  (* Under (1, 2) plan 0 is optimal; plan 1 is twice as expensive. *)
  check_float "gtc of optimal" 1.
    (Framework.global_relative_cost ~plans ~a:plans.(0) ~costs:[| 1.; 2. |]);
  check_float "gtc of loser" 2.
    (Framework.global_relative_cost ~plans ~a:plans.(1) ~costs:[| 1.; 2. |]);
  Alcotest.(check int) "optimal index" 0
    (Framework.optimal_index ~plans ~costs:[| 1.; 2. |])

let test_equicost () =
  let a = [| 1.; 0. |] and b = [| 0.; 1. |] in
  Alcotest.(check bool) "on plane" true (Framework.equicost ~a ~b ~costs:[| 3.; 3. |]);
  Alcotest.(check bool) "off plane" false
    (Framework.equicost ~a ~b ~costs:[| 3.; 4. |])

let test_worst_case_gtc_example1 () =
  (* Example 1: complementary unit plans reach exactly delta^2. *)
  let plans = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let gtc, witness = Worst_case.gtc_at_full ~plans ~initial:plans.(0) 10. in
  check_float "delta^2" 100. gtc;
  Alcotest.(check bool) "witness is a vertex" true
    (Array.for_all
       (fun x -> Float.abs (x -. 0.1) < 1e-9 || Float.abs (x -. 10.) < 1e-9)
       witness)

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_theorem1_range () =
  let lo, hi = Bounds.theorem1 ~delta:10. ~gamma:2. in
  check_float "lo" 0.02 lo;
  check_float "hi" 200. hi

let test_complementary_detection () =
  Alcotest.(check bool) "complementary" true
    (Bounds.complementary [| 1.; 0. |] [| 1.; 2. |]);
  Alcotest.(check bool) "not complementary" false
    (Bounds.complementary [| 1.; 1. |] [| 2.; 3. |]);
  Alcotest.(check bool) "shared zeros fine" false
    (Bounds.complementary [| 1.; 0. |] [| 2.; 0. |]);
  Alcotest.(check (list int)) "witness dims" [ 1 ]
    (Bounds.complementary_dims [| 1.; 0.; 3. |] [| 1.; 2.; 3. |])

let test_ratio_range () =
  (match Bounds.ratio_range [| 4.; 1. |] [| 1.; 2. |] with
  | Some (lo, hi) ->
      check_float "r_min" 0.5 lo;
      check_float "r_max" 4. hi
  | None -> Alcotest.fail "not complementary");
  Alcotest.(check bool) "complementary gives none" true
    (Bounds.ratio_range [| 1.; 0. |] [| 0.; 1. |] = None)

let test_max_element_ratio () =
  check_float "max(4, 1/0.5)" 4. (Bounds.max_element_ratio [| 4.; 1. |] [| 1.; 2. |]);
  Alcotest.(check bool) "infinite when complementary" true
    (Bounds.max_element_ratio [| 1.; 0. |] [| 0.; 1. |] = infinity)

let test_theorem2_bound_respected () =
  (* The worst-case GTC over ANY box never exceeds the Theorem 2 bound
     for non-complementary plan sets. *)
  let plans = [| [| 4.; 1.; 2. |]; [| 1.; 2.; 2. |]; [| 2.; 2.; 1. |] |] in
  let bound = Bounds.theorem2_bound plans in
  Array.iter
    (fun a ->
      let gtc = Worst_case.gtc_at ~plans ~initial:a 1e6 in
      Alcotest.(check bool) "gtc <= bound" true (gtc <= bound +. 1e-6))
    plans

(* Property: Theorem 1.  If costs move by at most delta per component,
   relative cost moves by at most delta^2. *)
let prop_theorem1 =
  let gen =
    QCheck.Gen.(
      tup4
        (array_size (return 4) (float_range 0.1 10.))
        (array_size (return 4) (float_range 0.1 10.))
        (array_size (return 4) (float_range 0.1 10.))
        (pair (float_range 1. 100.) (array_size (return 4) (float_range 0. 1.))))
  in
  QCheck.Test.make ~count:300 ~name:"theorem 1: delta^2 envelope"
    (QCheck.make gen)
    (fun (a, b, c, (delta, mix)) ->
      (* c-hat has each component within [c/delta, c*delta]. *)
      let c_hat =
        Array.mapi
          (fun i m ->
            let lo = c.(i) /. delta and hi = c.(i) *. delta in
            exp (log lo +. (m *. (log hi -. log lo))))
          mix
      in
      let gamma = Framework.relative_cost ~a ~b ~costs:c in
      let gamma' = Framework.relative_cost ~a ~b ~costs:c_hat in
      let lo, hi = Bounds.theorem1 ~delta ~gamma in
      gamma' >= lo -. (1e-9 *. hi) && gamma' <= hi +. (1e-9 *. hi))

(* Property: Theorem 2.  Non-complementary pairs stay inside
   [r_min, r_max] for every positive cost vector. *)
let prop_theorem2 =
  let gen =
    QCheck.Gen.(
      triple
        (array_size (return 5) (float_range 0.01 100.))
        (array_size (return 5) (float_range 0.01 100.))
        (array_size (return 5) (float_range 0.0001 1000.)))
  in
  QCheck.Test.make ~count:300 ~name:"theorem 2: ratio interval"
    (QCheck.make gen)
    (fun (a, b, c) ->
      match Bounds.ratio_range a b with
      | None -> QCheck.assume_fail ()
      | Some (lo, hi) ->
          let r = Framework.relative_cost ~a ~b ~costs:c in
          r >= lo -. (1e-9 *. hi) && r <= hi +. (1e-9 *. hi))

(* Property: Lemma 1 — the mediant inequality behind Theorem 2:
   (a1 c1 + a2 c2) / (b1 c1 + b2 c2) <= a1/b1 whenever a2/b2 <= a1/b1. *)
let prop_lemma1 =
  let gen =
    QCheck.Gen.(
      tup4 (pair (float_range 0.01 100.) (float_range 0.01 100.))
        (pair (float_range 0.01 100.) (float_range 0.01 100.))
        (float_range 0. 100.) (float_range 0. 100.))
  in
  QCheck.Test.make ~count:300 ~name:"lemma 1: mediant bounded by max ratio"
    (QCheck.make gen)
    (fun ((a1, b1), (a2, b2), c1, c2) ->
      QCheck.assume (a2 /. b2 <= a1 /. b1);
      QCheck.assume ((b1 *. c1) +. (b2 *. c2) > 0.);
      ((a1 *. c1) +. (a2 *. c2)) /. ((b1 *. c1) +. (b2 *. c2))
      <= (a1 /. b1) +. 1e-9)

(* Property: Observation 3.  If a plan is optimal at two cost vectors it
   is optimal at every convex combination. *)
let prop_observation3 =
  let gen =
    QCheck.Gen.(
      tup4
        (list_size (int_range 2 6) (array_size (return 3) (float_range 0.1 10.)))
        (array_size (return 3) (float_range 0.1 10.))
        (array_size (return 3) (float_range 0.1 10.))
        (float_range 0. 1.))
  in
  QCheck.Test.make ~count:300 ~name:"observation 3: convexity of optimality"
    (QCheck.make gen)
    (fun (plan_list, c1, c2, beta) ->
      let plans = Array.of_list plan_list in
      let i1 = Framework.optimal_index ~plans ~costs:c1 in
      let i2 = Framework.optimal_index ~plans ~costs:c2 in
      QCheck.assume (i1 = i2);
      let mix = Vec.add (Vec.scale beta c1) (Vec.scale (1. -. beta) c2) in
      let im = Framework.optimal_index ~plans ~costs:mix in
      (* Ties can pick another index; require equal cost, not equal index. *)
      Float.abs (Vec.dot plans.(im) mix -. Vec.dot plans.(i1) mix)
      <= 1e-9 *. Vec.dot plans.(i1) mix)

(* Property: dominated plans are never optimal under positive costs. *)
let prop_dominated_never_optimal =
  let gen =
    QCheck.Gen.(
      triple
        (array_size (return 3) (float_range 0.1 10.))
        (array_size (return 3) (float_range 0.01 1.))
        (array_size (return 3) (float_range 0.1 10.)))
  in
  QCheck.Test.make ~count:300 ~name:"dominated plans never optimal"
    (QCheck.make gen)
    (fun (a, q, c) ->
      let b = Vec.add a q in
      (* b = a + q with q > 0: a dominates b. *)
      let plans = [| a; b |] in
      Framework.optimal_index ~plans ~costs:c = 0)

(* ------------------------------------------------------------------ *)
(* Complementary classification *)

let dims : Complementary.dim_kind array =
  [| Complementary.Cpu_dim; Complementary.Table_dim "t";
     Complementary.Index_dim "t"; Complementary.Temp_dim |]

let test_classify_temp () =
  let a = [| 1.; 5.; 2.; 0. |] and b = [| 1.; 5.; 2.; 9. |] in
  let v = Complementary.classify ~dims a b in
  Alcotest.(check bool) "complementary" true v.complementary;
  Alcotest.(check bool) "temp kind" true
    (List.mem Complementary.Temp_complementary v.kinds)

let test_classify_access_path () =
  (* One plan reads the table, the other answers from the index only:
     opposite zero patterns on tbl:t and idx:t. *)
  let a = [| 1.; 5.; 0.; 0. |] and b = [| 1.; 0.; 3.; 0. |] in
  let v = Complementary.classify ~dims a b in
  Alcotest.(check bool) "complementary" true v.complementary;
  Alcotest.(check (list string)) "access path only"
    [ "access-path" ]
    (List.map Complementary.kind_name v.kinds)

let test_classify_near () =
  let a = [| 1.; 100.; 1.; 1. |] and b = [| 1.; 1.; 1.; 1. |] in
  let v = Complementary.classify ~dims a b in
  Alcotest.(check bool) "not exactly complementary" false v.complementary;
  Alcotest.(check bool) "near" true v.near;
  check_float "ratio" 100. v.max_ratio;
  Alcotest.(check bool) "table kind" true
    (List.mem Complementary.Table_complementary v.kinds)

let test_classify_benign () =
  let a = [| 1.; 2.; 3.; 4. |] and b = [| 1.5; 2.5; 3.5; 4.5 |] in
  let v = Complementary.classify ~dims a b in
  Alcotest.(check bool) "benign" true
    ((not v.complementary) && (not v.near) && v.kinds = [])

let test_dim_kinds_parsing () =
  let schema = Qsens_tpch.Spec.schema ~sf:1. in
  let layout =
    Qsens_catalog.Layout.make Qsens_catalog.Layout.Per_table_and_index_devices
      schema
  in
  let space = Qsens_cost.Space.of_layout layout in
  let groups = Qsens_cost.Groups.make Qsens_cost.Groups.Per_device space in
  let kinds = Complementary.dim_kinds groups in
  let count p = Array.fold_left (fun n k -> if p k then n + 1 else n) 0 kinds in
  Alcotest.(check int) "one cpu" 1
    (count (fun k -> k = Complementary.Cpu_dim));
  Alcotest.(check int) "one temp" 1
    (count (fun k -> k = Complementary.Temp_dim));
  Alcotest.(check int) "8 table dims" 8
    (count (function Complementary.Table_dim _ -> true | _ -> false));
  Alcotest.(check int) "8 index dims" 8
    (count (function Complementary.Index_dim _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Candidate discovery on a synthetic oracle *)

let synthetic_oracle plans =
  (* An "optimizer" that returns the cheapest of a fixed plan set. *)
  Oracle.make ~dim:(Vec.dim plans.(0)) ~probe:(fun theta ->
      let i = Framework.optimal_index ~plans ~costs:theta in
      (Printf.sprintf "P%d" i, plans.(i)))

let test_discovery_finds_all () =
  (* Three mutually competitive plans in 2D: each optimal somewhere. *)
  let plans = [| [| 1.; 10. |]; [| 10.; 1. |]; [| 4.; 4. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:100. in
  let r = Candidates.discover (synthetic_oracle plans) ~box in
  Alcotest.(check int) "all three found" 3 (List.length r.plans);
  Alcotest.(check bool) "verified" true r.verified_complete

let test_discovery_skips_never_optimal () =
  (* The dominated plan is never returned by the oracle. *)
  let plans = [| [| 1.; 10. |]; [| 10.; 1. |]; [| 20.; 20. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:100. in
  let r = Candidates.discover (synthetic_oracle plans) ~box in
  Alcotest.(check int) "two candidates" 2 (List.length r.plans);
  Alcotest.(check bool) "initial among them" true
    (List.exists
       (fun (p : Candidates.plan) -> p.signature = r.initial.signature)
       r.plans)

let test_discovery_narrow_cone () =
  (* A plan optimal only in a thin cone near a corner: the Observation-3
     vertex probing must still find it. *)
  let plans =
    [| [| 1.; 1. |]; (* balanced, optimal at the center *)
       [| 0.05; 1.9 |] (* wins only when dim 0 is very expensive *) |]
  in
  let box = Box.around [| 1.; 1. |] ~delta:1000. in
  let r = Candidates.discover (synthetic_oracle plans) ~box in
  Alcotest.(check int) "both found" 2 (List.length r.plans)

let test_discovery_budget () =
  let plans = [| [| 1.; 10. |]; [| 10.; 1. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:100. in
  let r = Candidates.discover ~max_probes:3 (synthetic_oracle plans) ~box in
  Alcotest.(check bool) "budget respected" true (r.probes <= 4);
  Alcotest.(check bool) "not verified" false r.verified_complete

(* Property: discovery against a brute-force reference.  For random plan
   sets in 2-3 dimensions, the candidate plans found by discovery must
   include every plan that a dense grid sweep finds optimal somewhere. *)
let prop_discovery_complete =
  let gen =
    QCheck.Gen.(
      pair (int_range 2 3)
        (list_size (int_range 2 6)
           (array_size (return 3) (float_range 0.5 20.))))
  in
  QCheck.Test.make ~count:60 ~name:"discovery finds every grid-optimal plan"
    (QCheck.make gen)
    (fun (m, plan_list) ->
      QCheck.assume (List.length plan_list >= 2);
      let plans =
        Array.of_list
          (List.map (fun p -> Array.sub p 0 m) plan_list)
      in
      let delta = 50. in
      let box = Box.around (Vec.make m 1.) ~delta in
      let oracle =
        Oracle.make ~dim:m ~probe:(fun theta ->
            let i = Framework.optimal_index ~plans ~costs:theta in
            (Printf.sprintf "P%d" i, plans.(i)))
      in
      let r = Candidates.discover oracle ~box in
      let found =
        List.map (fun (p : Candidates.plan) -> p.signature) r.plans
      in
      (* Brute force: dense log-grid sweep. *)
      let steps = 9 in
      let grid_optimal = Hashtbl.create 8 in
      let axis =
        Array.init steps (fun i ->
            let t = Float.of_int i /. Float.of_int (steps - 1) in
            exp (log (1. /. delta) +. (t *. 2. *. log delta)))
      in
      let rec sweep theta d =
        if d = m then begin
          let i = Framework.optimal_index ~plans ~costs:theta in
          Hashtbl.replace grid_optimal (Printf.sprintf "P%d" i) ()
        end
        else
          Array.iter
            (fun x ->
              theta.(d) <- x;
              sweep theta (d + 1))
            axis
      in
      sweep (Vec.make m 1.) 0;
      Hashtbl.fold
        (fun signature () acc -> acc && List.mem signature found)
        grid_optimal true)

(* Property: with a verified-complete candidate set and no complementary
   pair, the worst-case curve respects the Theorem 2 constant. *)
let prop_curve_under_theorem2 =
  let gen =
    QCheck.Gen.(
      list_size (int_range 2 5) (array_size (return 3) (float_range 0.5 20.)))
  in
  QCheck.Test.make ~count:100 ~name:"curve stays under theorem 2 bound"
    (QCheck.make gen)
    (fun plan_list ->
      let plans = Array.of_list plan_list in
      let bound = Bounds.theorem2_bound plans in
      QCheck.assume (Float.is_finite bound);
      let curve = Worst_case.curve ~plans ~initial:plans.(0) () in
      List.for_all
        (fun (p : Worst_case.point) -> p.gtc <= bound +. (1e-6 *. bound))
        curve)

(* ------------------------------------------------------------------ *)
(* Worst-case curves *)

let test_curve_monotone_and_example1 () =
  let plans = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let curve = Worst_case.curve ~plans ~initial:plans.(0) () in
  (* Monotone nondecreasing in delta, equal to delta^2 pointwise. *)
  let prev = ref 0. in
  List.iter
    (fun (p : Worst_case.point) ->
      Alcotest.(check bool) "monotone" true (p.gtc >= !prev -. 1e-9);
      Alcotest.(check bool) "equals delta^2" true
        (Float.abs (p.gtc -. (p.delta *. p.delta)) <= 1e-6 *. p.gtc);
      prev := p.gtc)
    curve;
  match Worst_case.asymptote curve with
  | `Quadratic s -> Alcotest.(check (float 1e-6)) "scale 1" 1. s
  | `Bounded _ -> Alcotest.fail "expected quadratic"

let test_curve_bounded_regime () =
  (* Proportional-ish plans: bounded by Theorem 2. *)
  let plans = [| [| 2.; 2. |]; [| 1.; 3. |] |] in
  let curve = Worst_case.curve ~plans ~initial:plans.(0) () in
  let bound = Bounds.theorem2_bound plans in
  List.iter
    (fun (p : Worst_case.point) ->
      Alcotest.(check bool) "under bound" true (p.gtc <= bound +. 1e-6))
    curve;
  match Worst_case.asymptote curve with
  | `Bounded c -> Alcotest.(check bool) "constant reached" true (c <= bound +. 1e-6)
  | `Quadratic _ -> Alcotest.fail "expected bounded"

let test_asymptote_decade_point () =
  (* The comparison point must be the *largest* delta <= last/10 — the
     point one decade earlier.  Growth from delta 10 (gtc 4) to delta
     100 (gtc 8) is 2x => bounded; comparing against delta 1 (gtc 1)
     would read 8x and misclassify as quadratic. *)
  let p delta gtc = { Worst_case.delta; gtc; witness = [| 1. |] } in
  let points = [ p 1. 1.; p 10. 4.; p 100. 8. ] in
  (match Worst_case.asymptote points with
  | `Bounded c -> check_float "bounded at last gtc" 8. c
  | `Quadratic _ -> Alcotest.fail "picked the wrong comparison point");
  (* Classification must not depend on the order of the points. *)
  match Worst_case.asymptote (List.rev points) with
  | `Bounded c -> check_float "order independent" 8. c
  | `Quadratic _ -> Alcotest.fail "descending input misclassified"

let test_gtc_at_one_is_one () =
  let plans = [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  (* delta = 1: the box is a point; the initial plan is optimal there. *)
  check_float "gtc(1)" 1. (Worst_case.gtc_at ~plans ~initial:plans.(0) 1.)

(* ------------------------------------------------------------------ *)
(* Experiment pipeline on real queries (small delta grid for speed) *)

let sf = 100.
let schema = Qsens_tpch.Spec.schema ~sf
let deltas = [ 1.; 10.; 100. ]

let test_pipeline_q6_same_device () =
  let query = Qsens_tpch.Queries.find ~sf "Q6" in
  let s =
    Experiment.setup ~schema ~policy:Qsens_catalog.Layout.Same_device query
  in
  let r = Experiment.run ~deltas s in
  Alcotest.(check int) "three parameters" 3 r.active_dim;
  Alcotest.(check bool) "verified" true r.candidates.verified_complete;
  let first = List.hd r.curve in
  check_float "gtc(1) = 1" 1. first.Worst_case.gtc;
  (* Same-device: no complementary pairs (Section 8.2). *)
  Alcotest.(check int) "no complementary pairs" 0 r.census.complementary_pairs

let test_pipeline_q20_split_layout () =
  let query = Qsens_tpch.Queries.find ~sf "Q20" in
  let s =
    Experiment.setup ~schema
      ~policy:Qsens_catalog.Layout.Per_table_and_index_devices query
  in
  let r = Experiment.run ~deltas ~max_probes:400 s in
  (* 4 distinct tables: 2k+2 = 10 ... plus nothing else; lineitem,
     partsupp, part, supplier, nation = 5 tables -> 12 parameters. *)
  Alcotest.(check int) "2k+2 parameters" 12 r.active_dim;
  (* The split layout produces complementary candidate plans for Q20. *)
  Alcotest.(check bool) "complementary pairs exist" true
    (r.census.complementary_pairs > 0);
  let last = List.hd (List.rev r.curve) in
  Alcotest.(check bool) "sensitive" true (last.Worst_case.gtc > 10.)

let test_pipeline_layout_ordering () =
  (* Section 8: sensitivity grows as devices decouple — Fig.5 <= Fig.7
     <= Fig.6 at the largest delta (allowing small sampling noise). *)
  let query = Qsens_tpch.Queries.find ~sf "Q14" in
  let gtc policy =
    let s = Experiment.setup ~schema ~policy query in
    let r = Experiment.run ~deltas ~max_probes:400 s in
    (List.hd (List.rev r.curve)).Worst_case.gtc
  in
  let same = gtc Qsens_catalog.Layout.Same_device in
  let per_table = gtc Qsens_catalog.Layout.Per_table_devices in
  let split = gtc Qsens_catalog.Layout.Per_table_and_index_devices in
  Alcotest.(check bool) "same <= split" true (same <= split *. 1.01);
  Alcotest.(check bool) "per-table <= split" true (per_table <= split *. 1.01)

(* ------------------------------------------------------------------ *)
(* Least-squares probing through the narrow interface *)

let test_lsq_recovers_usage () =
  let query = Qsens_tpch.Queries.find ~sf "Q14" in
  let s =
    Experiment.setup ~schema ~policy:Qsens_catalog.Layout.Per_table_devices
      query
  in
  let m = Projection.active_dim s.proj in
  let box = Box.around (Vec.make m 1.) ~delta:100. in
  let _, narrow = Experiment.narrow_oracle s ~box in
  let ones = Vec.make m 1. in
  let expand = Experiment.expand_theta s in
  let signature =
    match Qsens_optimizer.Narrow.explain narrow ~costs:(expand ones) with
    | Ok (signature, _) -> signature
    | Error _ -> Alcotest.fail "fault-free explain cannot fail"
  in
  match Probe.estimate_usage ~narrow ~expand ~signature ~box () with
  | Error _ -> Alcotest.fail "estimation failed"
  | Ok est -> (
      Alcotest.(check bool) "2n samples" true (est.samples >= 2 * m);
      Alcotest.(check bool) "tiny residual" true (est.residual < 0.01);
      Alcotest.(check int) "no dropped probes" 0 est.dropped;
      Alcotest.(check bool) "not degraded" false est.degraded;
      (* Compare against the white-box truth. *)
      let oracle = Experiment.white_box_oracle s in
      let _, truth = Oracle.probe oracle ones in
      Alcotest.(check bool) "recovers white-box usage" true
        (Vec.equal ~eps:(1e-4 *. Vec.norm_inf truth) est.usage truth);
      match Probe.validate ~narrow ~expand ~signature ~box est with
      | Ok err ->
          (* The paper reports < 1% discrepancy; ours is numerically exact. *)
          Alcotest.(check bool) "validation < 1%" true (err < 0.01)
      | Error _ -> Alcotest.fail "validation failed")

let test_narrow_discovery_equals_white_box () =
  (* Running the whole discovery pipeline through the narrow interface
     must find the same candidate plan set as the white box. *)
  let query = Qsens_tpch.Queries.find ~sf "Q14" in
  let s =
    Experiment.setup ~schema ~policy:Qsens_catalog.Layout.Same_device query
  in
  let white = Experiment.run ~deltas:[ 1.; 10.; 100. ] s in
  let narrow = Experiment.run ~deltas:[ 1.; 10.; 100. ] ~narrow:true s in
  let sigs (r : Experiment.report) =
    List.sort String.compare
      (List.map (fun (p : Candidates.plan) -> p.signature) r.candidates.plans)
  in
  Alcotest.(check (list string)) "same candidate set" (sigs white) (sigs narrow);
  (* And the same worst-case curve. *)
  List.iter2
    (fun (a : Worst_case.point) (b : Worst_case.point) ->
      Alcotest.(check bool) "same gtc" true
        (Float.abs (a.gtc -. b.gtc) <= 1e-6 *. Float.max 1. a.gtc))
    white.curve narrow.curve

let test_narrow_oracle_equals_white_box () =
  let query = Qsens_tpch.Queries.find ~sf "Q19" in
  let s =
    Experiment.setup ~schema ~policy:Qsens_catalog.Layout.Same_device query
  in
  let m = Projection.active_dim s.proj in
  let box = Box.around (Vec.make m 1.) ~delta:100. in
  let narrow, _ = Experiment.narrow_oracle s ~box in
  let white = Experiment.white_box_oracle s in
  let theta = Vec.make m 1. in
  let sig_n, eff_n = Oracle.probe narrow theta in
  let sig_w, eff_w = Oracle.probe white theta in
  Alcotest.(check string) "same plan" sig_w sig_n;
  Alcotest.(check bool) "same usage" true
    (Vec.equal ~eps:(1e-4 *. Vec.norm_inf eff_w) eff_n eff_w)

(* ------------------------------------------------------------------ *)
(* Projection *)

let test_projection () =
  let p = Projection.make ~full_dim:5 ~active:[ 1; 3 ] in
  Alcotest.(check int) "active dim" 2 (Projection.active_dim p);
  let v = [| 10.; 11.; 12.; 13.; 14. |] in
  Alcotest.(check bool) "project" true
    (Vec.equal (Projection.project p v) [| 11.; 13. |]);
  Alcotest.(check bool) "inject" true
    (Vec.equal (Projection.inject p ~fill:1. [| 7.; 8. |]) [| 1.; 7.; 1.; 8.; 1. |])

(* ------------------------------------------------------------------ *)
(* Phase-3 golden digest.

   Discovery on the e2e benchmark's two figure workloads — Figure 5's
   22 queries (same device, dimension 3) and Figure 6's nine two-table
   queries (per table and index, dimension 6) — at discovery seeds 42
   and 7919 with a 1200-probe budget, on the unit-centred box of the
   default delta grid.  The digest covers the initial plan, the plan
   signatures in discovery order, the probe count and the verified flag,
   so any change in the Observation-3 vertex lists that moves a probe
   shows up here. *)

let phase3_digest = "d27b1a002a8eea50668063e41119c7c0"

let test_phase3_golden () =
  let sf = Qsens_tpch.Spec.scale_factor_of_paper in
  let schema = Qsens_tpch.Spec.schema ~sf in
  let delta_max = List.fold_left Float.max 1. Worst_case.default_deltas in
  let workloads =
    [
      ( Qsens_catalog.Layout.Same_device,
        List.map (fun q -> q.Qsens_plan.Query.name) (Qsens_tpch.Queries.all ~sf) );
      ( Qsens_catalog.Layout.Per_table_and_index_devices,
        [ "Q4"; "Q12"; "Q13"; "Q14"; "Q15"; "Q16"; "Q17"; "Q19"; "Q22" ] );
    ]
  in
  let lines =
    List.concat_map
      (fun (policy, names) ->
        List.concat_map
          (fun name ->
            let s = Experiment.setup ~schema ~policy (Qsens_tpch.Queries.find ~sf name) in
            List.map
              (fun seed ->
                let oracle = Experiment.white_box_oracle s in
                let box =
                  Box.around (Vec.make (Oracle.dim oracle) 1.) ~delta:delta_max
                in
                let c = Candidates.discover ~seed ~max_probes:1200 oracle ~box in
                String.concat " "
                  ([ name; string_of_int seed; c.initial.signature;
                     string_of_int c.probes; string_of_bool c.verified_complete ]
                  @ List.map (fun (p : Candidates.plan) -> p.signature) c.plans))
              [ 42; 7919 ])
          names)
      workloads
  in
  Alcotest.(check string) "discovery digest" phase3_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_theorem1; prop_theorem2; prop_lemma1; prop_observation3;
        prop_dominated_never_optimal; prop_discovery_complete;
        prop_curve_under_theorem2 ]
  in
  Alcotest.run "core"
    [
      ( "framework",
        [
          Alcotest.test_case "relative cost" `Quick test_relative_cost;
          Alcotest.test_case "scale invariance (Obs 1)" `Quick test_scale_invariance;
          Alcotest.test_case "gtc" `Quick test_gtc;
          Alcotest.test_case "equicost" `Quick test_equicost;
          Alcotest.test_case "worst case example 1" `Quick
            test_worst_case_gtc_example1;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "theorem 1 range" `Quick test_theorem1_range;
          Alcotest.test_case "complementary detection" `Quick
            test_complementary_detection;
          Alcotest.test_case "ratio range" `Quick test_ratio_range;
          Alcotest.test_case "max element ratio" `Quick test_max_element_ratio;
          Alcotest.test_case "theorem 2 respected" `Quick
            test_theorem2_bound_respected;
        ] );
      ( "complementary",
        [
          Alcotest.test_case "temp" `Quick test_classify_temp;
          Alcotest.test_case "access path" `Quick test_classify_access_path;
          Alcotest.test_case "near" `Quick test_classify_near;
          Alcotest.test_case "benign" `Quick test_classify_benign;
          Alcotest.test_case "dim kinds" `Quick test_dim_kinds_parsing;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "finds all" `Quick test_discovery_finds_all;
          Alcotest.test_case "skips dominated" `Quick
            test_discovery_skips_never_optimal;
          Alcotest.test_case "narrow cone" `Quick test_discovery_narrow_cone;
          Alcotest.test_case "probe budget" `Quick test_discovery_budget;
          Alcotest.test_case "phase-3 golden" `Quick test_phase3_golden;
        ] );
      ( "worst-case",
        [
          Alcotest.test_case "example 1 curve" `Quick test_curve_monotone_and_example1;
          Alcotest.test_case "bounded regime" `Quick test_curve_bounded_regime;
          Alcotest.test_case "gtc at delta 1" `Quick test_gtc_at_one_is_one;
          Alcotest.test_case "asymptote decade point" `Quick
            test_asymptote_decade_point;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "Q6 same device" `Slow test_pipeline_q6_same_device;
          Alcotest.test_case "Q20 split layout" `Slow test_pipeline_q20_split_layout;
          Alcotest.test_case "layout ordering" `Slow test_pipeline_layout_ordering;
        ] );
      ( "probe",
        [
          Alcotest.test_case "lsq recovers usage" `Slow test_lsq_recovers_usage;
          Alcotest.test_case "narrow equals white box" `Slow
            test_narrow_oracle_equals_white_box;
          Alcotest.test_case "narrow discovery equals white box" `Slow
            test_narrow_discovery_equals_white_box;
        ] );
      ("projection", [ Alcotest.test_case "project/inject" `Quick test_projection ]);
      ("properties", props);
    ]
