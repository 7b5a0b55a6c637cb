(* Tests for robust plan choice (through Select) and calibration. *)

open Qsens_core
open Qsens_linalg

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Robust choice: Select's minimax regret against the classic optimum *)

let test_minimax_prefers_balanced () =
  (* Two fragile complementary plans and one balanced plan: the balanced
     plan is never nominal-optimal but bounds the worst case. *)
  let plans = [| [| 1.; 100. |]; [| 100.; 1. |]; [| 60.; 60. |] |] in
  let p = Select.select ~plans ~delta:1000. () in
  Alcotest.(check bool) "nominal picks a fragile plan" true
    (p.Select.classic <> 2);
  Alcotest.(check int) "minimax picks the balanced plan" 2 p.Select.minimax;
  (* The balanced plan's worst case is its Theorem-2 element ratio cap. *)
  Alcotest.(check bool) "worst gtc bounded" true (p.Select.regret.(2) < 100.);
  (* The fragile plan's worst case is its element-ratio cap (100); the
     balanced plan's is 60: a strict improvement, tight by Theorem 2. *)
  Alcotest.(check bool) "fragile plan strictly worse" true
    (p.Select.regret.(p.Select.classic) > 1.5 *. p.Select.regret.(2))

let test_minimax_agrees_when_safe () =
  (* Proportional plans: the nominal optimum is also minimax. *)
  let plans = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  let p = Select.select ~plans ~delta:100. () in
  Alcotest.(check int) "same choice" 0 p.Select.minimax;
  check_float "gtc 1" 1. p.Select.regret.(0);
  check_float "no penalty" 1. (Select.nominal_penalty ~plans p.Select.minimax)

let test_minimax_penalty_accounting () =
  let plans = [| [| 1.; 100. |]; [| 60.; 60. |] |] in
  (* Nominal costs: plan0 = 101, plan1 = 120. *)
  check_float "penalty" (120. /. 101.) (Select.nominal_penalty ~plans 1)

let test_minimax_single_plan () =
  let plans = [| [| 3.; 4. |] |] in
  let p = Select.select ~plans ~delta:100. () in
  Alcotest.(check int) "only plan" 0 p.Select.minimax;
  check_float "gtc 1" 1. p.Select.regret.(0)

(* Property: the minimax value never exceeds the nominal plan's
   worst-case GTC. *)
let prop_minimax_improves =
  let gen =
    QCheck.Gen.(
      list_size (int_range 2 6) (array_size (return 3) (float_range 0.1 50.)))
  in
  QCheck.Test.make ~count:200 ~name:"minimax <= nominal worst case"
    (QCheck.make gen)
    (fun plan_list ->
      let plans = Array.of_list plan_list in
      let p = Select.select ~plans ~delta:100. () in
      p.Select.regret.(p.Select.minimax) <= p.Select.regret.(p.Select.classic))

(* ------------------------------------------------------------------ *)
(* Calibrate *)

let observe usage truth noise_seed =
  let st = Random.State.make [| noise_seed |] in
  List.map
    (fun u ->
      let noise = 1. +. (Random.State.float st 0.002 -. 0.001) in
      { Calibrate.usage = u; elapsed = Vec.dot u truth *. noise })
    usage

let test_calibrate_exact () =
  let truth = [| 24.1; 9.0; 2.5 |] in
  let usage =
    [ [| 10.; 0.; 1. |]; [| 0.; 10.; 1. |]; [| 1.; 1.; 10. |];
      [| 5.; 2.; 0. |]; [| 2.; 7.; 3. |]; [| 8.; 1.; 1. |] ]
  in
  let observations =
    List.map (fun u -> { Calibrate.usage = u; elapsed = Vec.dot u truth }) usage
  in
  (match Calibrate.estimate_costs observations with
  | Ok c -> Alcotest.(check bool) "exact recovery" true (Vec.equal ~eps:1e-6 c truth)
  | Error _ -> Alcotest.fail "expected estimate");
  Alcotest.(check bool) "well posed" true
    (Calibrate.well_posed observations ~dim:3)

let test_calibrate_noisy () =
  let truth = [| 50.; 8.; 1. |] in
  let usage =
    List.init 30 (fun i ->
        [| Float.of_int ((i * 7 mod 13) + 1);
           Float.of_int ((i * 5 mod 11) + 1);
           Float.of_int ((i * 3 mod 7) + 1) |])
  in
  let observations = observe usage truth 3 in
  match Calibrate.estimate_costs observations with
  | Error _ -> Alcotest.fail "expected estimate"
  | Ok c ->
      Array.iteri
        (fun i x ->
          (* the modular design matrix is fairly ill-conditioned, so the
             0.1% observation noise can amplify a few-fold *)
          Alcotest.(check bool) "within 5%" true
            (Float.abs (x -. truth.(i)) /. truth.(i) < 0.05))
        c;
      Alcotest.(check bool) "small residual" true
        (Calibrate.residual c observations < 0.01)

let test_calibrate_underdetermined () =
  let observations =
    [ { Calibrate.usage = [| 1.; 0. |]; elapsed = 5. } ]
  in
  (* The typed error distinguishes the causes the old option conflated:
     too few observations vs a singular (collinear) system. *)
  (match Calibrate.estimate_costs observations with
  | Error (Qsens_faults.Fault.Too_few_observations { got = 1; need = 2 }) -> ()
  | Ok _ -> Alcotest.fail "one observation cannot determine two dims"
  | Error e ->
      Alcotest.fail
        ("expected Too_few_observations, got "
        ^ Qsens_faults.Fault.error_to_string e));
  Alcotest.(check bool) "not well posed" false
    (Calibrate.well_posed observations ~dim:2);
  (* Collinear observations cannot determine two dimensions either. *)
  let collinear =
    [ { Calibrate.usage = [| 1.; 1. |]; elapsed = 2. };
      { Calibrate.usage = [| 2.; 2. |]; elapsed = 4. };
      { Calibrate.usage = [| 3.; 3. |]; elapsed = 6. } ]
  in
  match Calibrate.estimate_costs collinear with
  | Error Qsens_faults.Fault.Singular_system -> ()
  | Ok _ -> Alcotest.fail "collinear observations cannot determine two dims"
  | Error e ->
      Alcotest.fail
        ("expected Singular_system, got "
        ^ Qsens_faults.Fault.error_to_string e)

let test_calibrate_ridge_uses_prior () =
  (* Only dimension 0 is observed; ridge keeps dimension 1 at the prior
     instead of exploding. *)
  let observations =
    [ { Calibrate.usage = [| 10.; 0. |]; elapsed = 300. };
      { Calibrate.usage = [| 20.; 0. |]; elapsed = 600. };
      { Calibrate.usage = [| 5.; 0. |]; elapsed = 150. } ]
  in
  match
    Calibrate.estimate_costs ~ridge:1e-6 ~prior:[| 1.; 7. |] observations
  with
  | Error _ -> Alcotest.fail "ridge should always solve"
  | Ok c ->
      Alcotest.(check bool) "observed dim from data" true
        (Float.abs (c.(0) -. 30.) < 0.1);
      Alcotest.(check bool) "unobserved dim from prior" true
        (Float.abs (c.(1) -. 7.) < 0.1)

let test_calibrate_then_reoptimize () =
  (* The loop on a real query: drift a device, observe candidate-plan
     executions, calibrate, re-optimize: the recalibrated plan must cost
     no more (under truth) than the stale plan. *)
  let sf = 100. in
  let schema = Qsens_tpch.Spec.schema ~sf in
  let policy = Qsens_catalog.Layout.Per_table_and_index_devices in
  let query = Qsens_tpch.Queries.find ~sf "Q9" in
  let s = Experiment.setup ~schema ~policy query in
  let m = Projection.active_dim s.proj in
  let names = Qsens_cost.Groups.names s.groups in
  let active = Projection.active s.proj in
  let truth = Vec.make m 1. in
  Array.iteri
    (fun k dim -> if names.(dim) = "dev:idx:lineitem" then truth.(k) <- 50.)
    active;
  let r = Experiment.run ~deltas:[ 1.; 50. ] ~max_probes:500 s in
  let observations =
    List.map
      (fun (p : Candidates.plan) ->
        { Calibrate.usage = p.eff; elapsed = Vec.dot p.eff truth })
      r.candidates.plans
  in
  match Calibrate.estimate_costs ~ridge:1e-6 observations with
  | Error _ -> Alcotest.fail "calibration failed"
  | Ok theta ->
      let true_costs = Experiment.expand_theta s truth in
      let stale =
        Qsens_optimizer.Optimizer.optimize s.env query
          ~costs:(Experiment.expand_theta s (Vec.make m 1.))
      in
      let recal =
        Qsens_optimizer.Optimizer.optimize s.env query
          ~costs:
            (Experiment.expand_theta s (Vec.map (fun x -> Float.max 0.01 x) theta))
      in
      let c plan = Qsens_optimizer.Optimizer.cost_of_plan plan true_costs in
      Alcotest.(check bool) "recalibrated no worse than stale" true
        (c recal.plan <= c stale.plan +. 1e-6)

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_minimax_improves ] in
  Alcotest.run "autonomic"
    [
      ( "robust",
        [
          Alcotest.test_case "prefers balanced" `Quick test_minimax_prefers_balanced;
          Alcotest.test_case "agrees when safe" `Quick test_minimax_agrees_when_safe;
          Alcotest.test_case "penalty accounting" `Quick
            test_minimax_penalty_accounting;
          Alcotest.test_case "single plan" `Quick test_minimax_single_plan;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "exact" `Quick test_calibrate_exact;
          Alcotest.test_case "noisy" `Quick test_calibrate_noisy;
          Alcotest.test_case "underdetermined" `Quick test_calibrate_underdetermined;
          Alcotest.test_case "ridge prior" `Quick test_calibrate_ridge_uses_prior;
          Alcotest.test_case "calibrate then reoptimize" `Slow
            test_calibrate_then_reoptimize;
        ] );
      ("properties", props);
    ]
