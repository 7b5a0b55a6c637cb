(* Tier-1 smoke and determinism tests for the qsens_parallel domain
   pool.  Every parallel entry point must return results *identical* to
   its sequential counterpart — not merely equivalent up to reordering.
   Pools here use 2 and 3 domains, so `dune runtest` exercises the
   parallel paths on every build. *)

open Qsens_core
open Qsens_linalg
open Qsens_geom
module Pool = Qsens_parallel.Pool

let pool2 = Pool.create ~domains:2 ()
let pool3 = Pool.create ~domains:3 ()

let () =
  at_exit (fun () ->
      Pool.shutdown pool2;
      Pool.shutdown pool3)

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let test_chunk_bounds () =
  List.iter
    (fun (n, chunks) ->
      let covered = Array.make n 0 in
      let prev_hi = ref 0 in
      for i = 0 to chunks - 1 do
        let lo, hi = Pool.chunk_bounds ~n ~chunks i in
        Alcotest.(check int) "contiguous" !prev_hi lo;
        prev_hi := hi;
        for j = lo to hi - 1 do
          covered.(j) <- covered.(j) + 1
        done
      done;
      Alcotest.(check int) "covers to n" n !prev_hi;
      Alcotest.(check bool) "each index once" true
        (Array.for_all (fun c -> c = 1) covered))
    [ (10, 3); (7, 7); (100, 8); (5, 4); (3, 2) ]

let test_auto_chunks () =
  (* The single default-chunking formula behind every ?chunks-omitted
     call site: max (2*domains) (n/64), clamped to 1..n. *)
  List.iter
    (fun (domains, n, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "domains=%d n=%d" domains n)
        expect
        (Pool.auto_chunks ~domains ~n))
    [
      (* Small n: clamped to n itself. *)
      (2, 1, 1);
      (2, 3, 3);
      (4, 5, 5);
      (* Two waves per domain dominates for mid-size n. *)
      (2, 100, 4);
      (3, 100, 6);
      (4, 1_000, 15);
      (* One chunk per ~64 elements dominates for large n. *)
      (2, 10_000, 156);
      (1, 640, 10);
      (* Degenerate index spaces collapse to one chunk. *)
      (2, 0, 1);
      (2, -5, 1);
    ];
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Pool.auto_chunks: domains must be >= 1") (fun () ->
      ignore (Pool.auto_chunks ~domains:0 ~n:10))

let test_map_reduce_sum () =
  let n = 10_000 in
  let map lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + i
    done;
    !s
  in
  let expect = n * (n - 1) / 2 in
  List.iter
    (fun pool ->
      Alcotest.(check int) "sum"
        expect
        (Pool.map_reduce pool ~n ~map ~reduce:( + ) ~init:0))
    [ pool2; pool3 ];
  Alcotest.(check int) "odd chunk count" expect
    (Pool.map_reduce ~chunks:7 pool2 ~n ~map ~reduce:( + ) ~init:0)

let test_map_reduce_order () =
  (* Reduction happens in ascending chunk order: concatenating the
     chunk ranges must rebuild 0..n-1 exactly. *)
  let n = 57 in
  let ranges =
    Pool.map_reduce pool3 ~n
      ~map:(fun lo hi -> List.init (hi - lo) (fun i -> lo + i))
      ~reduce:(fun acc l -> acc @ l)
      ~init:[]
  in
  Alcotest.(check (list int)) "in order" (List.init n Fun.id) ranges

let test_parallel_for_coverage () =
  let n = 1_000 in
  let hits = Array.make n 0 in
  Pool.parallel_for_chunked pool2 ~n (fun lo hi ->
      for i = lo to hi - 1 do
        (* qsens-lint: disable=P001 — each index written exactly once *)
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_run_exception_propagates () =
  Alcotest.check_raises "first failure re-raised" (Failure "task 3")
    (fun () ->
      Pool.run pool2
        (Array.init 8 (fun i ->
             fun () -> if i = 3 then failwith "task 3")))

exception Task_boom

(* A raise site the compiler cannot inline away, so the task's
   backtrace has at least one slot pointing here. *)
let[@inline never] boom () = raise Task_boom

let test_run_exception_backtrace () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace prev)
    (fun () ->
      match
        Pool.run pool2 (Array.init 8 (fun i -> fun () -> if i = 5 then boom ()))
      with
      | () -> Alcotest.fail "expected Task_boom"
      | exception Task_boom ->
          (* raise_with_backtrace hands back the trace captured inside
             the task, so the re-raise is not an empty trace rooted in
             the pool internals. *)
          let bt = Printexc.get_backtrace () in
          Alcotest.(check bool) "backtrace non-empty" true
            (String.length (String.trim bt) > 0))

let test_run_nested_rejected () =
  (* A batch launched from inside a pooled task must be refused: the
     submitting task would deadlock waiting on workers that are busy
     running it. *)
  let saw = ref None in
  (try
     Pool.run pool2
       (Array.init 2 (fun _ ->
            fun () ->
              Pool.run pool2 (Array.init 2 (fun _ -> fun () -> ()))))
   with e -> saw := Some e);
  match !saw with
  | Some (Invalid_argument msg)
    when msg = "Pool.run: nested or concurrent batches are not supported" ->
      ()
  | Some e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | None -> Alcotest.fail "nested Pool.run was not rejected"

let test_one_domain_runs_inline () =
  Pool.with_pool ~domains:1 (fun p ->
      (* Every task runs on the calling domain... *)
      let caller = Domain.self () in
      let on_caller = ref true in
      Pool.run p
        (Array.init 4 (fun _ ->
             fun () ->
               (* qsens-lint: disable=P001 — 1-domain pool, tasks run inline *)
               if not (Domain.self () = caller) then on_caller := false));
      Alcotest.(check bool) "tasks run on calling domain" true !on_caller;
      (* ...and parallel_for_chunked degenerates to one body 0 n call. *)
      let calls = ref [] in
      Pool.parallel_for_chunked p ~n:64 (fun lo hi ->
          (* qsens-lint: disable=P001 — 1-domain pool, body runs inline *)
          calls := (lo, hi) :: !calls);
      Alcotest.(check (list (pair int int)))
        "single inline chunk" [ (0, 64) ] !calls)

let test_sequential_fallback () =
  (* A 1-domain pool spawns no workers and runs inline. *)
  Pool.with_pool ~domains:1 (fun p ->
      Alcotest.(check int) "one domain" 1 (Pool.domains p);
      let s =
        Pool.map_reduce p ~n:100
          ~map:(fun lo hi -> (hi - lo) * (lo + hi - 1) / 2)
          ~reduce:( + ) ~init:0
      in
      Alcotest.(check int) "inline sum" 4950 s)

(* ------------------------------------------------------------------ *)
(* nth_subset: the combinatorial number system behind the reference
   scan's rank chunking *)

let test_nth_subset () =
  let n = 7 and k = 3 in
  let total = Vertex_enum.count_subsets n k in
  Alcotest.(check int) "C(7,3)" 35 total;
  let subsets =
    List.init total (fun r -> Array.to_list (Qsens_oracle.nth_subset n k r))
  in
  Alcotest.(check (list int)) "rank 0" [ 0; 1; 2 ] (List.hd subsets);
  Alcotest.(check (list int)) "last rank" [ 4; 5; 6 ]
    (List.nth subsets (total - 1));
  (* Lexicographic and strictly increasing: sorted, all distinct. *)
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) -> compare a b < 0 && strictly_ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "lex order, no repeats" true
    (strictly_ascending subsets);
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Qsens_oracle.nth_subset: rank out of range") (fun () ->
      ignore (Qsens_oracle.nth_subset n k total))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel results identical to sequential *)

let gen_plans ~dim_lo ~dim_hi ~plans_lo ~plans_hi =
  QCheck.Gen.(
    int_range dim_lo dim_hi >>= fun m ->
    int_range plans_lo plans_hi >>= fun k ->
    pair
      (array_size (return k) (array_size (return m) (float_range 0.1 10.)))
      (float_range 2. 100.))

let same_vec a b = Vec.dim a = Vec.dim b && Array.for_all2 ( = ) a b

let prop_vertices_parallel =
  (* The reference scan's ?pool chunking must return the same vertex
     list — same floats, same order — as its sequential run, and so must
     the production walk, across dims 2..6. *)
  QCheck.Test.make ~count:40 ~name:"vertices: parallel == sequential"
    (QCheck.make (gen_plans ~dim_lo:2 ~dim_hi:6 ~plans_lo:3 ~plans_hi:8))
    (fun (plans, delta) ->
      let m = Array.length plans.(0) in
      let box = Box.around (Vec.make m 1.) ~delta in
      let region = Region.of_plans ~plans ~index:0 box in
      let hs = Region.halfspaces region in
      let seq = Qsens_oracle.vertices hs in
      let par2 = Qsens_oracle.vertices ~pool:pool2 hs in
      let par3 = Qsens_oracle.vertices ~pool:pool3 hs in
      let walk = Region.vertices region in
      List.length seq = List.length par2
      && List.length seq = List.length par3
      && List.length seq = List.length walk
      && List.for_all2 same_vec seq par2
      && List.for_all2 same_vec seq par3
      && List.for_all2 same_vec seq walk)

let prop_worst_case_gtc_parallel =
  QCheck.Test.make ~count:60 ~name:"worst_case_gtc: parallel == sequential"
    (QCheck.make (gen_plans ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:12))
    (fun (plans, delta) ->
      let m = Array.length plans.(0) in
      let box = Box.around (Vec.make m 1.) ~delta in
      let g_seq, w_seq =
        Framework.worst_case_gtc_fractional ~plans ~a:plans.(0) box
      in
      let g_par, w_par =
        Framework.worst_case_gtc_fractional ~pool:pool2 ~plans ~a:plans.(0)
          box
      in
      g_seq = g_par && same_vec w_seq w_par)

let prop_curve_parallel =
  (* Identical (delta, gtc) pairs AND identical witnesses: the per-delta
     argmax ties break by lowest plan index in both paths. *)
  QCheck.Test.make ~count:30 ~name:"curve: parallel == sequential"
    (QCheck.make (gen_plans ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:10))
    (fun (plans, _delta) ->
      let deltas = [ 1.; 10.; 100.; 1000. ] in
      let seq = Worst_case.curve ~deltas ~plans ~initial:plans.(0) () in
      let par =
        Worst_case.curve ~deltas ~pool:pool2 ~plans ~initial:plans.(0) ()
      in
      List.length seq = List.length par
      && List.for_all2
           (fun (p : Worst_case.point) (q : Worst_case.point) ->
             p.delta = q.delta && p.gtc = q.gtc && same_vec p.witness q.witness)
           seq par)

(* Bit-level float equality: NaN = NaN is false under (=), so the
   degenerate-plan properties compare IEEE bit patterns instead. *)
let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let gen_plans_degenerate ~dim_lo ~dim_hi ~plans_lo ~plans_hi =
  (* Like gen_plans, but one random plan row is zeroed (a zero-usage
     plan) and the initial plan may be zeroed too, driving
     Fractional.max_ratio into its degenerate 0/0 branch. *)
  QCheck.Gen.(
    gen_plans ~dim_lo ~dim_hi ~plans_lo ~plans_hi >>= fun (plans, delta) ->
    let k = Array.length plans in
    let m = Array.length plans.(0) in
    int_range 0 (k - 1) >>= fun zi ->
    bool >>= fun zero_initial ->
    let plans = Array.map Array.copy plans in
    plans.(zi) <- Array.make m 0.;
    if zero_initial then plans.(0) <- Array.make m 0.;
    return (plans, delta))

let prop_curve_parallel_degenerate =
  (* Zero-usage plans yield NaN cost ratios.  Both curve paths must
     skip them identically — bit-for-bit agreement on every point,
     including a NaN gtc when every plan is degenerate. *)
  QCheck.Test.make ~count:40
    ~name:"curve: zero-usage plans, parallel == sequential"
    (QCheck.make
       (gen_plans_degenerate ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:8))
    (fun (plans, _delta) ->
      let deltas = [ 1.; 10.; 100. ] in
      let seq = Worst_case.curve ~deltas ~plans ~initial:plans.(0) () in
      let par =
        Worst_case.curve ~deltas ~pool:pool2 ~plans ~initial:plans.(0) ()
      in
      List.length seq = List.length par
      && List.for_all2
           (fun (p : Worst_case.point) (q : Worst_case.point) ->
             same_float p.delta q.delta
             && same_float p.gtc q.gtc
             && Vec.dim p.witness = Vec.dim q.witness
             && Array.for_all2 same_float p.witness q.witness)
           seq par)

let test_curve_all_degenerate () =
  (* Every plan zero-usage: no valid ratio anywhere, so both paths must
     report gtc = NaN with the box centre as witness instead of the
     argmax seed value. *)
  let plans = [| Array.make 3 0.; Array.make 3 0. |] in
  let deltas = [ 10. ] in
  let seq = Worst_case.curve ~deltas ~plans ~initial:plans.(0) () in
  let par =
    Worst_case.curve ~deltas ~pool:pool2 ~plans ~initial:plans.(0) ()
  in
  match (seq, par) with
  | [ p ], [ q ] ->
      Alcotest.(check bool) "seq gtc NaN" true (Float.is_nan p.gtc);
      Alcotest.(check bool) "par gtc NaN" true (Float.is_nan q.gtc);
      Alcotest.(check bool) "witnesses equal" true
        (same_vec p.witness q.witness)
  | _ -> Alcotest.fail "expected one curve point per path"

(* ------------------------------------------------------------------ *)
(* Candidate discovery: identical probes and plan set with a pool *)

let synthetic_oracle plans =
  Oracle.make ~dim:(Vec.dim plans.(0)) ~probe:(fun theta ->
      let i = Framework.optimal_index ~plans ~costs:theta in
      (Printf.sprintf "P%d" i, plans.(i)))

let test_discover_parallel_identical () =
  let plans =
    [| [| 1.; 10.; 4. |]; [| 10.; 1.; 4. |]; [| 4.; 4.; 1. |];
       [| 2.; 6.; 3. |] |]
  in
  let box = Box.around [| 1.; 1.; 1. |] ~delta:100. in
  let seq = Candidates.discover (synthetic_oracle plans) ~box in
  let par = Candidates.discover ~pool:pool2 (synthetic_oracle plans) ~box in
  Alcotest.(check int) "same probe count" seq.probes par.probes;
  Alcotest.(check bool) "same verification" seq.verified_complete
    par.verified_complete;
  Alcotest.(check (list string)) "same plans, same order"
    (List.map (fun (p : Candidates.plan) -> p.signature) seq.plans)
    (List.map (fun (p : Candidates.plan) -> p.signature) par.plans)

(* ------------------------------------------------------------------ *)
(* Monte Carlo: documented per-domain streams, reproducible *)

let test_monte_carlo_pool_reproducible () =
  let plans = [| [| 1.; 10. |]; [| 10.; 1. |] |] in
  let run () =
    Monte_carlo.gtc_distribution ~samples:2_000 ~pool:pool2 ~plans
      ~initial:plans.(0) ~delta:100. ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical summaries" true (a = b);
  Alcotest.(check bool) "sane mean" true (a.mean >= 1.);
  Alcotest.(check bool) "percentiles ordered" true
    (a.p50 <= a.p90 && a.p90 <= a.p99 && a.p99 <= a.max_seen)

let test_monte_carlo_one_domain_matches_sequential () =
  let plans = [| [| 1.; 5.; 2. |]; [| 5.; 1.; 2. |] |] in
  let seq =
    Monte_carlo.gtc_distribution ~samples:1_000 ~plans ~initial:plans.(0)
      ~delta:50. ()
  in
  Pool.with_pool ~domains:1 (fun p ->
      let one =
        Monte_carlo.gtc_distribution ~samples:1_000 ~pool:p ~plans
          ~initial:plans.(0) ~delta:50. ()
      in
      Alcotest.(check bool) "1-domain pool == no pool" true (seq = one))

(* ------------------------------------------------------------------ *)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_vertices_parallel; prop_worst_case_gtc_parallel;
        prop_curve_parallel; prop_curve_parallel_degenerate ]
  in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "chunk bounds" `Quick test_chunk_bounds;
          Alcotest.test_case "auto chunks" `Quick test_auto_chunks;
          Alcotest.test_case "map_reduce sum" `Quick test_map_reduce_sum;
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_order;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_parallel_for_coverage;
          Alcotest.test_case "exception propagation" `Quick
            test_run_exception_propagates;
          Alcotest.test_case "exception backtrace preserved" `Quick
            test_run_exception_backtrace;
          Alcotest.test_case "nested run rejected" `Quick
            test_run_nested_rejected;
          Alcotest.test_case "one domain runs inline" `Quick
            test_one_domain_runs_inline;
          Alcotest.test_case "sequential fallback" `Quick
            test_sequential_fallback;
        ] );
      ("nth-subset", [ Alcotest.test_case "unrank" `Quick test_nth_subset ]);
      ( "degenerate",
        [
          Alcotest.test_case "all-zero plans: NaN gtc, centre witness" `Quick
            test_curve_all_degenerate;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "parallel identical" `Quick
            test_discover_parallel_identical;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "pool reproducible" `Quick
            test_monte_carlo_pool_reproducible;
          Alcotest.test_case "one domain == sequential" `Quick
            test_monte_carlo_one_domain_matches_sequential;
        ] );
      ("determinism", props);
    ]
