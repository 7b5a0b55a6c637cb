(* Tests for half-spaces, boxes, the simplex solver, vertex enumeration,
   linear-fractional optimization, and regions of influence. *)

open Qsens_linalg
open Qsens_geom

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Halfspace *)

let test_halfspace_membership () =
  let h = Halfspace.make [| 1.; 1. |] 2. in
  Alcotest.(check bool) "inside" true (Halfspace.contains h [| 0.5; 0.5 |]);
  Alcotest.(check bool) "boundary" true (Halfspace.contains h [| 1.; 1. |]);
  Alcotest.(check bool) "outside" false (Halfspace.contains h [| 2.; 2. |]);
  Alcotest.(check bool) "on_boundary" true (Halfspace.on_boundary h [| 1.; 1. |])

let test_halfspace_shift () =
  let h = Halfspace.make [| 3.; 4. |] 10. in
  let h' = Halfspace.shift 1. h in
  (* The normal has norm 5, so the offset drops by 5. *)
  check_float "offset" 5. h'.Halfspace.offset

let test_switchover () =
  (* Example 1 of the paper: A = (1,0), B = (0,1).  The switchover plane
     is the diagonal; on it both plans cost the same. *)
  let h = Halfspace.switchover [| 1.; 0. |] [| 0.; 1. |] in
  Alcotest.(check bool) "diagonal on plane" true
    (Halfspace.on_boundary h [| 3.; 3. |]);
  (* Below the diagonal (c1 < c2): plan a is cheaper, i.e. inside. *)
  Alcotest.(check bool) "a cheaper side" true (Halfspace.contains h [| 1.; 2. |]);
  Alcotest.(check bool) "b cheaper side" false
    (Halfspace.contains h [| 2.; 1. |])

let test_complement () =
  let h = Halfspace.make [| 1.; 0. |] 1. in
  let c = Halfspace.complement h in
  Alcotest.(check bool) "flipped" true (Halfspace.contains c [| 2.; 0. |]);
  Alcotest.(check bool) "both on boundary" true
    (Halfspace.contains c [| 1.; 0. |] && Halfspace.contains h [| 1.; 0. |])

(* ------------------------------------------------------------------ *)
(* Box *)

let test_box_around () =
  let b = Box.around [| 2.; 8. |] ~delta:2. in
  Alcotest.(check bool) "lo" true (Vec.equal b.Box.lo [| 1.; 4. |]);
  Alcotest.(check bool) "hi" true (Vec.equal b.Box.hi [| 4.; 16. |]);
  Alcotest.(check bool) "contains center" true (Box.contains b [| 2.; 8. |]);
  Alcotest.(check bool) "excludes" false (Box.contains b [| 5.; 8. |])

let test_box_vertices () =
  let b = Box.make [| 0.; 0. |] [| 1.; 2. |] in
  let vs = Box.vertices b in
  Alcotest.(check int) "count" 4 (List.length vs);
  Alcotest.(check bool) "has (1,2)" true
    (List.exists (fun v -> Vec.equal v [| 1.; 2. |]) vs);
  Alcotest.(check bool) "has (0,0)" true
    (List.exists (fun v -> Vec.equal v [| 0.; 0. |]) vs)

let test_box_corner_maximizing () =
  let b = Box.make [| 1.; 1. |] [| 10.; 10. |] in
  Alcotest.(check bool) "mixed signs" true
    (Vec.equal (Box.corner_maximizing b [| 1.; -1. |]) [| 10.; 1. |])

let test_box_sample_degenerate () =
  (* A degenerate interval (lo = hi) must return the endpoint exactly,
     not exp (log l), which drifts in the last ulp; 3.7 is not exactly
     representable, so the round trip would differ. *)
  let st = Random.State.make [| 5 |] in
  let b = Box.make [| 3.7; 1. |] [| 3.7; 2. |] in
  for _ = 1 to 20 do
    let x = Box.sample st b in
    Alcotest.(check bool) "exact endpoint" true (x.(0) = 3.7);
    Alcotest.(check bool) "in range" true (x.(1) >= 1. && x.(1) <= 2.)
  done;
  Alcotest.(check bool) "exp/log differs" true (exp (log 3.7) <> 3.7)

let test_box_halfspaces () =
  let b = Box.make [| 0.; 0. |] [| 1.; 1. |] in
  let hs = Box.to_halfspaces b in
  Alcotest.(check int) "4 facets" 4 (List.length hs);
  Alcotest.(check bool) "inside all" true
    (List.for_all (fun h -> Halfspace.contains h [| 0.5; 0.5 |]) hs);
  Alcotest.(check bool) "outside some" false
    (List.for_all (fun h -> Halfspace.contains h [| 1.5; 0.5 |]) hs)

(* ------------------------------------------------------------------ *)
(* Simplex *)

let test_simplex_basic () =
  (* max x + y st x <= 2, y <= 3 -> 5 at (2,3). *)
  match
    Simplex.maximize ~obj:[| 1.; 1. |]
      ~constraints:[ ([| 1.; 0. |], 2.); ([| 0.; 1. |], 3.) ]
  with
  | Simplex.Optimal (x, v) ->
      check_float "value" 5. v;
      Alcotest.(check bool) "point" true (Vec.equal ~eps:1e-9 x [| 2.; 3. |])
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_classic () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2,6). *)
  match
    Simplex.maximize ~obj:[| 3.; 5. |]
      ~constraints:
        [ ([| 1.; 0. |], 4.); ([| 0.; 2. |], 12.); ([| 3.; 2. |], 18.) ]
  with
  | Simplex.Optimal (x, v) ->
      check_float "value" 36. v;
      Alcotest.(check bool) "point" true (Vec.equal ~eps:1e-9 x [| 2.; 6. |])
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_unbounded () =
  match Simplex.maximize ~obj:[| 1.; 0. |] ~constraints:[ ([| 0.; 1. |], 1.) ] with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_infeasible () =
  (* x <= -1 with x >= 0 has no solution. *)
  match Simplex.maximize ~obj:[| 1. |] ~constraints:[ ([| 1. |], -1.) ] with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_negative_rhs_feasible () =
  (* -x <= -2 means x >= 2; max -x st x >= 2, x <= 5 -> x = 2. *)
  match
    Simplex.maximize ~obj:[| -1. |]
      ~constraints:[ ([| -1. |], -2.); ([| 1. |], 5.) ]
  with
  | Simplex.Optimal (x, _) -> check_float "x" 2. x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_feasible_in_box () =
  let box = Box.make [| 1.; 1. |] [| 4.; 4. |] in
  (* x + y <= 3 cuts a corner off the box: (1,1) qualifies. *)
  let h = Halfspace.make [| 1.; 1. |] 3. in
  (match Simplex.feasible_in_box box [ h ] with
  | Some p ->
      Alcotest.(check bool) "in box" true (Box.contains box p);
      Alcotest.(check bool) "in halfspace" true (Halfspace.contains h p)
  | None -> Alcotest.fail "expected feasible");
  (* x + y <= 1 excludes the whole box. *)
  let h2 = Halfspace.make [| 1.; 1. |] 1. in
  Alcotest.(check bool) "infeasible" true
    (Simplex.feasible_in_box box [ h2 ] = None)

(* ------------------------------------------------------------------ *)
(* Vertex enumeration *)

let test_count_subsets () =
  Alcotest.(check int) "C(5,2)" 10 (Vertex_enum.count_subsets 5 2);
  Alcotest.(check int) "C(34,5)" 278256 (Vertex_enum.count_subsets 34 5);
  Alcotest.(check int) "C(n,0)" 1 (Vertex_enum.count_subsets 7 0);
  Alcotest.(check int) "C(n,n)" 1 (Vertex_enum.count_subsets 7 7);
  Alcotest.(check int) "k>n" 0 (Vertex_enum.count_subsets 3 5)

let test_vertex_enum_box () =
  let b = Box.make [| 0.; 0. |] [| 2.; 3. |] in
  let vs = Vertex_enum.vertices ~box:b [] in
  Alcotest.(check int) "square has 4 vertices" 4 (List.length vs)

let test_vertex_enum_triangle () =
  (* x >= 0, y >= 0, x + y <= 1 (the box's upper facets touch only at
     the degenerate corners (1,0) and (0,1)). *)
  let box = Box.make [| 0.; 0. |] [| 1.; 1. |] in
  let vs = Vertex_enum.vertices ~box [ Halfspace.make [| 1.; 1. |] 1. ] in
  Alcotest.(check int) "triangle has 3 vertices" 3 (List.length vs);
  Alcotest.(check bool) "has (1,0)" true
    (List.exists (fun v -> Vec.equal ~eps:1e-7 v [| 1.; 0. |]) vs)

let test_vertex_enum_too_large () =
  let b = Box.make (Vec.zero 6) (Vec.make 6 1.) in
  Alcotest.check_raises "budget" Vertex_enum.Too_large (fun () ->
      ignore (Vertex_enum.vertices ~max_subsets:10 ~box:b []))

(* ------------------------------------------------------------------ *)
(* The basis walk against the hyperplane-subset scan it replaced *)

let same_bits a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              x y)
       a b

(* The walk and the reference scan: the same vertex list (length,
   order, bits), or both over budget. *)
let agree walk scan =
  let attempt f = try Some (f ()) with Vertex_enum.Too_large -> None in
  match (attempt walk, attempt scan) with
  | None, None -> true
  | Some a, Some b -> same_bits a b
  | _ -> false

let walk_matches_scan ?pool region =
  agree
    (fun () -> Region.vertices region)
    (fun () -> Qsens_oracle.vertices ?pool (Region.halfspaces region))

(* Every region phase 3 of discovery can enumerate for [name]: a round
   works on the known plans sorted by signature, and the known set is
   always a prefix of the discovery order, so the contracted regions of
   every prefix cover every round. *)
let discovery_regions policy name ~seed =
  let open Qsens_core in
  let sf = Qsens_tpch.Spec.scale_factor_of_paper in
  let s =
    Experiment.setup ~schema:(Qsens_tpch.Spec.schema ~sf) ~policy
      (Qsens_tpch.Queries.find ~sf name)
  in
  let oracle = Experiment.white_box_oracle s in
  let delta_max = List.fold_left Float.max 1. Worst_case.default_deltas in
  let box = Box.around (Vec.make (Oracle.dim oracle) 1.) ~delta:delta_max in
  let c = Candidates.discover ~seed ~max_probes:1200 oracle ~box in
  let found = Array.of_list c.plans in
  List.concat
    (List.init (Array.length found) (fun len ->
         let plans =
           Array.sub found 0 (len + 1)
           |> Array.to_list
           |> List.sort (fun (a : Candidates.plan) b ->
                  String.compare a.signature b.signature)
           |> List.map (fun (p : Candidates.plan) -> p.eff)
           |> Array.of_list
         in
         List.init (len + 1) (fun index ->
             Region.contract 1e-6 (Region.of_plans ~plans ~index box))))

let check_discovery_regions ?pool policy names ~seed =
  List.iter
    (fun name ->
      let regions = discovery_regions policy name ~seed in
      List.iteri
        (fun i r ->
          if not (walk_matches_scan ?pool r) then
            Alcotest.failf "%s seed %d: region %d differs from the subset scan" name
              seed i)
        regions)
    names

let test_walk_figure5_regions () =
  let sf = Qsens_tpch.Spec.scale_factor_of_paper in
  let names = List.map (fun q -> q.Qsens_plan.Query.name) (Qsens_tpch.Queries.all ~sf) in
  List.iter
    (fun seed -> check_discovery_regions Qsens_catalog.Layout.Same_device names ~seed)
    [ 42; 7919 ]

let test_walk_figure6_regions () =
  Qsens_parallel.Pool.with_pool ~domains:2 (fun pool ->
      check_discovery_regions ~pool Qsens_catalog.Layout.Per_table_and_index_devices
        [ "Q12"; "Q16" ] ~seed:42)

(* Regions on which earlier builds of the walk disagreed with the scan
   (fixtures/walk_regions.txt, exact bits). *)
let recorded_regions () =
  let floats words = Array.of_list (List.map float_of_string words) in
  let lines =
    In_channel.with_open_text "fixtures/walk_regions.txt" In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (String.split_on_char ' ')
  in
  let rec regions acc = function
    | [ "region"; _ ] :: ("lo" :: lo) :: ("hi" :: hi) :: rest ->
        let rec rows hs = function
          | ("h" :: h) :: rest ->
              let v = floats h in
              let n = Array.length v - 1 in
              rows (Halfspace.make (Array.sub v 0 n) v.(n) :: hs) rest
          | rest -> (List.rev hs, rest)
        in
        let hs, rest = rows [] rest in
        regions ((Box.make (floats lo) (floats hi), hs) :: acc) rest
    | [] -> List.rev acc
    | _ -> Alcotest.fail "fixtures/walk_regions.txt: malformed"
  in
  regions [] lines

let test_walk_recorded_regions () =
  let regions = recorded_regions () in
  Alcotest.(check bool) "regions read" true (List.length regions > 40);
  List.iteri
    (fun i (box, hs) ->
      if
        not
          (agree
             (fun () -> Vertex_enum.vertices ~box hs)
             (fun () -> Qsens_oracle.vertices (hs @ Box.to_halfspaces box)))
      then Alcotest.failf "recorded region %d differs from the subset scan" i)
    regions

(* Random regions at dimensions 2-6, with the degenerate shapes the
   walk must get right: duplicate plans (a zero switchover normal, and
   two identical rows), switchovers through box corners, regions emptied
   by the contraction, and lower-dimensional (flat) regions. *)
type shape = Random | Duplicates | Corners | Emptied | Flat

let gen_region =
  QCheck.Gen.(
    int_range 2 6 >>= fun m ->
    int_range 2 (if m >= 5 then 6 else 9) >>= fun k ->
    oneofl [ Random; Duplicates; Corners; Emptied; Flat ] >>= fun shape ->
    (* Usage spread: comparable magnitudes, or twelve decades as in the
       per-table-and-index layouts. *)
    oneofl [ (0.1, 10.); (1e-3, 1e9) ] >>= fun (lo, hi) ->
    array_size (return k)
      (array_size (return m) (map exp (float_range (log lo) (log hi))))
    >>= fun plans ->
    oneofl [ 1.5; 10.; 100.; 1e4 ] >>= fun delta ->
    oneofl [ 0.; 1e-6; 1e-3 ] >>= fun contraction ->
    int_bound (k - 1) >>= fun index ->
    int_bound ((1 lsl m) - 1) >>= fun corner ->
    return (shape, plans, delta, contraction, index, corner))

let build_region (shape, plans, delta, contraction, index, corner) =
  let plans = Array.map Array.copy plans in
  let k = Array.length plans and m = Array.length plans.(0) in
  let box = Box.around (Vec.make m 1.) ~delta in
  let other = (index + 1) mod k in
  (match shape with
  | Random -> ()
  | Duplicates ->
      plans.(other) <- Array.copy plans.(index);
      if k > 2 then plans.((index + 2) mod k) <- Array.copy plans.((index + 3) mod k)
  | Corners ->
      (* Each other plan differs from the region's plan by a vector
         orthogonal to one box corner: its switchover passes through
         that corner. *)
      let v = Box.vertex box corner in
      Array.iteri
        (fun j p ->
          if j <> index then begin
            let w = Vec.sub p plans.(index) in
            let w = Vec.sub w (Vec.scale (Vec.dot w v /. Vec.dot v v) v) in
            plans.(j) <- Vec.add plans.(index) w
          end)
        plans
  | Flat | Emptied ->
      (* Mirror one plan through the region's plan: the two switchovers
         are opposite, so the region lies in one hyperplane.  [Emptied]
         tilts the mirror image by a hair instead, leaving a thin wedge
         through the origin that the contraction empties near the low
         corner and not beyond it. *)
      let mirror = Vec.sub (Vec.scale 2. plans.(index)) plans.((index + 2) mod k) in
      plans.(other) <-
        (if shape = Emptied then begin
           let tilt = 10. ** -.Float.of_int (5 + (corner mod 5)) in
           Array.mapi (fun i v -> if i = 0 then v *. (1. +. tilt) else v) mirror
         end
         else mirror));
  let region = Region.of_plans ~plans ~index box in
  let contraction = if shape = Emptied then 1e-6 else contraction in
  Region.contract contraction region

let prop_walk_matches_scan =
  QCheck.Test.make ~count:300 ~name:"basis walk == subset scan, bit for bit"
    (QCheck.make gen_region) (fun spec -> walk_matches_scan (build_region spec))

(* ------------------------------------------------------------------ *)
(* Fractional *)

let test_fractional_example1 () =
  (* Example 1 / Theorem 1 tightness: A=(1,0), B=(0,1) over
     [1/d, d]^2 gives max ratio exactly d^2. *)
  let delta = 10. in
  let box = Box.around [| 1.; 1. |] ~delta in
  let r, corner =
    Fractional.max_ratio ~num:[| 1.; 0. |] ~den:[| 0.; 1. |] box
  in
  Alcotest.(check (float 1e-6)) "delta^2" (delta *. delta) r;
  (* Attained where c1 is most expensive and c2 cheapest. *)
  Alcotest.(check bool) "corner" true
    (Vec.equal ~eps:1e-9 corner [| delta; 1. /. delta |])

let test_fractional_constant () =
  (* Proportional vectors: the ratio is constant everywhere. *)
  let box = Box.around [| 1.; 1.; 1. |] ~delta:100. in
  let r, _ = Fractional.max_ratio ~num:[| 2.; 4.; 6. |] ~den:[| 1.; 2.; 3. |] box in
  Alcotest.(check (float 1e-6)) "constant 2" 2. r

let test_fractional_theorem2_bound () =
  (* Non-complementary pair: max ratio over ANY box is below r_max. *)
  let num = [| 4.; 1. |] and den = [| 1.; 2. |] in
  let box = Box.around [| 1.; 1. |] ~delta:1_000_000. in
  let r, _ = Fractional.max_ratio ~num ~den box in
  Alcotest.(check bool) "r <= r_max" true (r <= 4. +. 1e-6);
  Alcotest.(check bool) "r approaches r_max" true (r > 3.99)

let test_fractional_min () =
  let box = Box.around [| 1.; 1. |] ~delta:10. in
  let r, _ = Fractional.min_ratio ~num:[| 1.; 0. |] ~den:[| 0.; 1. |] box in
  Alcotest.(check (float 1e-6)) "1/delta^2" 0.01 r

let prop_fractional_attains_max =
  (* Bisection agrees with brute-force corner enumeration. *)
  let gen =
    QCheck.Gen.(
      pair
        (array_size (return 3) (float_bound_inclusive 10.))
        (array_size (return 3) (float_bound_inclusive 10.)))
  in
  QCheck.Test.make ~count:200 ~name:"fractional max equals corner max"
    (QCheck.make gen) (fun (num, den) ->
      QCheck.assume (Vec.dot den (Vec.make 3 1.) > 0.01);
      QCheck.assume (Vec.dot num (Vec.make 3 1.) > 0.01);
      let box = Box.around [| 1.; 1.; 1. |] ~delta:50. in
      let r, _ = Fractional.max_ratio ~num ~den box in
      let brute =
        List.fold_left
          (fun acc c ->
            let d = Vec.dot den c in
            if d > 0. then Float.max acc (Vec.dot num c /. d) else acc)
          0. (Box.vertices box)
      in
      Float.abs (r -. brute) <= 1e-6 *. Float.max 1. brute)

(* ------------------------------------------------------------------ *)
(* Region *)

let test_region_membership () =
  (* Plans (1,3) and (3,1) split the box along the diagonal. *)
  let plans = [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:10. in
  let r0 = Region.of_plans ~plans ~index:0 box in
  (* Plan 0 is optimal where resource 2 is cheap: c = (10, 0.1). *)
  Alcotest.(check bool) "plan 0 side" true (Region.contains r0 [| 10.; 0.1 |]);
  Alcotest.(check bool) "plan 1 side" false (Region.contains r0 [| 0.1; 10. |])

let test_region_empty_for_dominated () =
  (* A dominated plan has an empty region of influence. *)
  let plans = [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:10. in
  let r1 = Region.of_plans ~plans ~index:1 box in
  Alcotest.(check bool) "empty" true (Region.interior_point ~margin:1e-6 r1 = None);
  Alcotest.(check bool) "dominated" true (Region.dominated plans 1);
  Alcotest.(check bool) "dominant not dominated" false (Region.dominated plans 0)

let test_region_vertices () =
  let plans = [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:2. in
  let r0 = Region.of_plans ~plans ~index:0 box in
  let vs = Region.vertices r0 in
  (* The diagonal passes through two corners of the square, cutting it
     into triangles: 3 vertices, all inside the region. *)
  Alcotest.(check int) "3 vertices" 3 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check bool) "vertex in region" true
        (Region.contains ~eps:1e-6 r0 v))
    vs

let test_region_contract () =
  let plans = [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:2. in
  let r0 = Region.of_plans ~plans ~index:0 box in
  let c = Region.contract 0.1 r0 in
  (* A point on the switchover plane leaves the contracted region. *)
  Alcotest.(check bool) "boundary point excluded" true
    (Region.contains r0 [| 1.; 1. |] && not (Region.contains c [| 1.; 1. |]))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_fractional_attains_max; prop_walk_matches_scan ]
  in
  Alcotest.run "geom"
    [
      ( "halfspace",
        [
          Alcotest.test_case "membership" `Quick test_halfspace_membership;
          Alcotest.test_case "shift" `Quick test_halfspace_shift;
          Alcotest.test_case "switchover" `Quick test_switchover;
          Alcotest.test_case "complement" `Quick test_complement;
        ] );
      ( "box",
        [
          Alcotest.test_case "around" `Quick test_box_around;
          Alcotest.test_case "vertices" `Quick test_box_vertices;
          Alcotest.test_case "corner maximizing" `Quick test_box_corner_maximizing;
          Alcotest.test_case "halfspaces" `Quick test_box_halfspaces;
          Alcotest.test_case "sample degenerate" `Quick
            test_box_sample_degenerate;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic" `Quick test_simplex_basic;
          Alcotest.test_case "classic" `Quick test_simplex_classic;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs_feasible;
          Alcotest.test_case "feasible in box" `Quick test_feasible_in_box;
        ] );
      ( "vertex-enum",
        [
          Alcotest.test_case "count subsets" `Quick test_count_subsets;
          Alcotest.test_case "box" `Quick test_vertex_enum_box;
          Alcotest.test_case "triangle" `Quick test_vertex_enum_triangle;
          Alcotest.test_case "too large" `Quick test_vertex_enum_too_large;
          Alcotest.test_case "figure 5 regions == scan" `Quick
            test_walk_figure5_regions;
          Alcotest.test_case "figure 6 Q12, Q16 regions == scan" `Quick
            test_walk_figure6_regions;
          Alcotest.test_case "recorded regions == scan" `Quick
            test_walk_recorded_regions;
        ] );
      ( "fractional",
        [
          Alcotest.test_case "example 1 tightness" `Quick test_fractional_example1;
          Alcotest.test_case "constant ratio" `Quick test_fractional_constant;
          Alcotest.test_case "theorem 2 cap" `Quick test_fractional_theorem2_bound;
          Alcotest.test_case "min ratio" `Quick test_fractional_min;
        ] );
      ( "region",
        [
          Alcotest.test_case "membership" `Quick test_region_membership;
          Alcotest.test_case "dominated empty" `Quick test_region_empty_for_dominated;
          Alcotest.test_case "vertices" `Quick test_region_vertices;
          Alcotest.test_case "contract" `Quick test_region_contract;
        ] );
      ("properties", qsuite);
    ]
