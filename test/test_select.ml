(* Tier-1 tests for robust plan selection (Qsens_core.Select).

   The load-bearing properties, per DESIGN.md section 15:

   + at delta = 1 the error box collapses to a point and all three
     decision rules (classic / LEC / minimax) return the classic index;
   + LEC provably coincides with classic over the symmetric all-ones
     center — the midpoint vector is a common positive scaling of the
     estimate;
   + selections are bit-identical across pool sizes 1/2/3;
   + every candidate's regret column reproduces Worst_case.curve with
     that candidate as the initial plan bit-for-bit — selection is the
     worst-case engine pointed at each candidate in turn, not a
     reimplementation — and, wherever both tiers are defined (dims up
     to Limits.exhaustive_max_dim = 12), the forced branch-and-bound
     curve (Qsens_oracle.curve_pruned) too. *)

open Qsens_core
open Qsens_linalg
module Pool = Qsens_parallel.Pool
module Budget = Qsens_budget.Budget
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

let same_farr a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let same_point (p : Select.point) (q : Select.point) =
  same_float p.Select.delta q.Select.delta
  && p.Select.classic = q.Select.classic
  && p.Select.lec = q.Select.lec
  && p.Select.minimax = q.Select.minimax
  && same_farr p.Select.expected q.Select.expected
  && same_farr p.Select.regret q.Select.regret

let same_points ps qs =
  List.length ps = List.length qs && List.for_all2 same_point ps qs

let deltas = [ 1.; 2.; 10.; 177.; 10_000. ]

let gen_plan_set ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate =
  QCheck.Gen.(
    int_range dim_lo dim_hi >>= fun m ->
    int_range plans_lo plans_hi >>= fun k ->
    array_size (return k) (array_size (return m) (float_range 0.1 10.))
    >>= fun plans ->
    if not degenerate then return plans
    else
      int_range 0 (k - 1) >>= fun zi ->
      let plans = Array.map Array.copy plans in
      plans.(zi) <- Array.make m 0.;
      return plans)

(* ------------------------------------------------------------------ *)
(* Point-box collapse and the LEC = classic theorem *)

let prop_point_box_collapse =
  QCheck.Test.make ~count:40
    ~name:"select: point box (delta = 1) degrades to the classic optimum"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:false))
    (fun plans ->
      let p = Select.select ~plans ~delta:1. () in
      let classic = Select.classic_index ~plans in
      p.Select.classic = classic
      && p.Select.lec = classic
      && p.Select.minimax = classic)

let prop_lec_is_classic =
  QCheck.Test.make ~count:40
    ~name:"select: LEC == classic over the symmetric ones-center box"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:false))
    (fun plans ->
      let points, _ = Select.curve ~deltas ~plans () in
      List.for_all
        (fun (p : Select.point) -> p.Select.lec = p.Select.classic)
        points)

(* ------------------------------------------------------------------ *)
(* Bit-identity: every regret column against the worst-case curves of
   that candidate, and pool sizes *)

(* Candidate [i]'s regret column equals [curve ~initial:plans.(i)]'s gtc
   column, bit for bit. *)
let regrets_match (points : Select.point list) i curve =
  List.for_all2
    (fun (p : Select.point) (w : Worst_case.point) ->
      same_float p.Select.regret.(i) w.Worst_case.gtc)
    points curve

let selection_property plans =
  let reference, ref_path = Select.curve ~deltas ~plans () in
  String.equal ref_path "exhaustive sweep"
  && Array.for_all Fun.id
       (Array.mapi
          (fun i initial ->
            regrets_match reference i
              (Worst_case.curve ~deltas ~plans ~initial ())
            && regrets_match reference i
                 (Oracle.curve_pruned ~deltas ~plans ~initial ()))
          plans)
  && List.for_all
       (fun pool ->
         same_points reference (fst (Select.curve ~deltas ?pool ~plans ())))
       [ None; Some pool1; Some pool2; Some pool3 ]

let prop_select_bits =
  QCheck.Test.make ~count:40
    ~name:"select: exhaustive == bnb == auto, pools 1/2/3"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:false))
    selection_property

let prop_select_bits_degenerate =
  QCheck.Test.make ~count:25
    ~name:"select: engines and pools agree with zero-usage plans"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:6
          ~degenerate:true))
    selection_property

(* A plan set above the exhaustive gate, where the dispatcher picks the
   branch-and-bound tier itself. *)
let bnb_plans ~seed ~count =
  let m = Limits.exhaustive_max_dim + 2 in
  let rand = Random.State.make [| seed; m |] in
  Array.init count (fun _ ->
      Array.init m (fun _ -> 0.1 +. Random.State.float rand 9.9))

let test_dim14_tiers () =
  (* Above the exhaustive gate every regret column must still be the
     worst-case curve of its candidate — the dispatcher's budgeted
     branch-and-bound, and the unbudgeted forced search alike, since no
     search trips the default budget here — at every pool size. *)
  let plans = bnb_plans ~seed:41 ~count:3 in
  let deltas = [ 1.; 10. ] in
  let points, path = Select.curve ~deltas ~plans () in
  Alcotest.(check string) "path" "branch-and-bound" path;
  Array.iteri
    (fun i initial ->
      Alcotest.(check bool)
        (Printf.sprintf "candidate %d == Worst_case.curve" i)
        true
        (regrets_match points i (Worst_case.curve ~deltas ~plans ~initial ()));
      Alcotest.(check bool)
        (Printf.sprintf "candidate %d == forced search" i)
        true
        (regrets_match points i
           (Oracle.curve_pruned ~deltas ~plans ~initial ())))
    plans;
  List.iter
    (fun pool ->
      Alcotest.(check bool) "pool-independent" true
        (same_points points (fst (Select.curve ~deltas ~pool ~plans ()))))
    [ pool1; pool2; pool3 ]

(* ------------------------------------------------------------------ *)
(* A hand-built case where minimax penalty separates from classic *)

(* Two specialist plans and one hedge.  At the estimate (1, 1) the
   specialists tie at cost 1 and the hedge costs 1.2, so classic picks
   plan 0.  Over the delta = 10 box the worst vertex for either
   specialist is the one that inflates its own resource tenfold while
   deflating the rival's — regret 10 / 0.1 = 100 — while the hedge's
   worst regret is 6.06 / 0.1 = 60.6.  Minimax buys the hedge. *)
let hedge_plans = [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.6; 0.6 |] |]

let test_minimax_beats_classic () =
  let p = Select.select ~plans:hedge_plans ~delta:10. () in
  Alcotest.(check int) "classic picks the specialist" 0 p.Select.classic;
  Alcotest.(check int) "lec agrees with classic" 0 p.Select.lec;
  Alcotest.(check int) "minimax picks the hedge" 2 p.Select.minimax;
  Alcotest.(check (float 1e-9)) "specialist regret" 100. p.Select.regret.(0);
  Alcotest.(check (float 1e-9)) "hedge regret" 60.6 p.Select.regret.(2);
  Alcotest.(check bool) "strictly lower regret" true
    (p.Select.regret.(p.Select.minimax) < p.Select.regret.(p.Select.classic));
  (* The single-delta query is the matching curve point, bit for bit. *)
  let points, _ = Select.curve ~deltas:[ 10. ] ~plans:hedge_plans () in
  Alcotest.(check bool) "select == curve point" true
    (same_points [ p ] points)

let test_budget_fallback_cells () =
  (* Above the exhaustive gate, a one-node budget trips every
     branch-and-bound search; each cell degrades to the
     linear-fractional program alone and the path says so.  The answers
     stay exact — fractional is an exact tier. *)
  let plans = bnb_plans ~seed:43 ~count:4 in
  let exact = Select.select ~plans ~delta:10. () in
  let points, path = Select.curve ~deltas:[ 10. ] ~node_budget:1 ~plans () in
  Alcotest.(check string) "path"
    "branch-and-bound (4/4 searches past the 1-node budget -> \
     linear-fractional)"
    path;
  match points with
  | [ p ] ->
      Alcotest.(check int) "every cell fell back" 4 p.Select.fallbacks;
      Alcotest.(check bool) "path names the fallback" true
        (let needle = "linear-fractional" in
         let n = String.length needle and h = String.length path in
         let rec go i =
           i + n <= h && (String.sub path i n = needle || go (i + 1))
         in
         go 0);
      Alcotest.(check int) "minimax unchanged" exact.Select.minimax
        p.Select.minimax;
      Array.iteri
        (fun i r ->
          let e = exact.Select.regret.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "regret %d within fractional tolerance" i)
            true
            (Float.abs (r -. e) <= 1e-9 *. Float.max 1. (Float.abs e)))
        p.Select.regret
  | _ -> Alcotest.fail "expected one point"

(* ------------------------------------------------------------------ *)
(* Monte-Carlo floor *)

let test_estimate_floor () =
  let exact = Select.select ~plans:hedge_plans ~delta:10. () in
  let est = Select.estimate ~samples:2000 ~plans:hedge_plans ~delta:10. () in
  Alcotest.(check int) "classic exact" exact.Select.classic est.Select.classic;
  Alcotest.(check int) "lec exact" exact.Select.lec est.Select.lec;
  Alcotest.(check bool) "expected column exact" true
    (same_farr exact.Select.expected est.Select.expected);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "regret %d is a lower bound" i)
        true
        (r <= exact.Select.regret.(i) *. (1. +. 1e-9)))
    est.Select.regret;
  (* Budget clamp: the floor never raises, draws what the allowance
     affords, and charges it up front. *)
  let b = Budget.create 7 in
  let clamped =
    Select.estimate ~budget:b ~samples:2000 ~plans:hedge_plans ~delta:10. ()
  in
  Alcotest.(check int) "allowance spent" 1 (Budget.remaining b);
  Alcotest.(check int) "classic still exact" exact.Select.classic
    clamped.Select.classic;
  (* Same seed, same sample count: the estimate is reproducible. *)
  let again = Select.estimate ~samples:2000 ~plans:hedge_plans ~delta:10. () in
  Alcotest.(check bool) "seeded estimate reproducible" true
    (same_point est again)

(* ------------------------------------------------------------------ *)
(* Argument gates *)

let test_gates () =
  Alcotest.check_raises "empty plan set"
    (Invalid_argument "Select.curve: no plans") (fun () ->
      ignore (Select.curve ~plans:[||] ()));
  Alcotest.check_raises "mismatched dimensions"
    (Invalid_argument "Select.curve: plan 1 has dimension 3, expected 2")
    (fun () ->
      ignore (Select.curve ~plans:[| [| 1.; 2. |]; [| 1.; 2.; 3. |] |] ()));
  Alcotest.check_raises "expected_costs sub-1 delta"
    (Invalid_argument "Select.expected_costs: delta < 1") (fun () ->
      ignore
        (Select.expected_costs
           ~kernel:(Kernel.pack [| [| 1. |] |])
           ~center:[| 1. |] ~delta:0.5));
  Alcotest.check_raises "estimate sub-1 delta"
    (Invalid_argument "Select.estimate: delta < 1") (fun () ->
      ignore (Select.estimate ~plans:[| [| 1. |] |] ~delta:0.5 ()))

let () =
  Alcotest.run "select"
    [
      ( "rules",
        [
          QCheck_alcotest.to_alcotest prop_point_box_collapse;
          QCheck_alcotest.to_alcotest prop_lec_is_classic;
          Alcotest.test_case "minimax beats classic" `Quick
            test_minimax_beats_classic;
        ] );
      ( "bit-identity",
        [
          QCheck_alcotest.to_alcotest prop_select_bits;
          QCheck_alcotest.to_alcotest prop_select_bits_degenerate;
          Alcotest.test_case "dim-14 tiers" `Quick test_dim14_tiers;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "budget fallback cells" `Quick
            test_budget_fallback_cells;
          Alcotest.test_case "monte-carlo floor" `Quick test_estimate_floor;
        ] );
      ("gates", [ Alcotest.test_case "arguments" `Quick test_gates ]);
    ]
