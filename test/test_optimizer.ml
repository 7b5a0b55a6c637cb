(* Tests for the DP optimizer and the narrow EXPLAIN-style interface. *)

open Qsens_catalog
open Qsens_cost
open Qsens_plan
open Qsens_optimizer
open Qsens_linalg

let sf = 100.
let schema = Qsens_tpch.Spec.schema ~sf
let env policy = Env.make ~schema ~policy ()
let query name = Qsens_tpch.Queries.find ~sf name

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let scaled_costs env ~seek ~xfer ~cpu =
  Array.map
    (function
      | Resource.Cpu -> Defaults.cpu_per_instruction *. cpu
      | Resource.Seek _ -> Defaults.d_s *. seek
      | Resource.Transfer _ -> Defaults.d_t *. xfer)
    (Space.resources env.Env.space)

let test_consistency () =
  (* The reported total cost is exactly usage . costs, at every probe of
     one prepared space. *)
  let env = env Layout.Same_device in
  let base = Defaults.base_costs env.Env.space in
  List.iter
    (fun q ->
      let prepared = Optimizer.prepare env q in
      List.iter
        (fun scale ->
          let costs = Vec.scale scale base in
          let r = Optimizer.best prepared ~costs in
          Alcotest.(check bool)
            (q.Query.name ^ " cost = usage . C")
            true
            (same_bits r.total_cost (Vec.dot r.plan.Node.usage costs)))
        [ 1.; 1e-3; 1e3 ])
    (Qsens_tpch.Queries.all ~sf)

let test_single_table () =
  let env = env Layout.Same_device in
  let costs = Defaults.base_costs env.Env.space in
  let r = Optimizer.optimize env (query "Q1") ~costs in
  (* Q1 has no joins: the plan is an access plus aggregation/sort. *)
  Alcotest.(check bool) "covers l" true (r.plan.Node.aliases = [ "l" ])

let test_optimal_among_alternatives () =
  (* The DP result is never beaten by hand-built two-table plans. *)
  let env = env Layout.Same_device in
  let costs = Defaults.base_costs env.Env.space in
  let q = query "Q14" in
  let ctx = Node.make_ctx env q in
  let r = Optimizer.optimize env q ~costs in
  let l = Node.table_scan ctx "l" and p = Node.table_scan ctx "p" in
  let finalize node =
    List.fold_left
      (fun acc n -> if Node.cost n costs < Node.cost acc costs then n else acc)
      (Node.finalize ctx node)
      (Node.finalize_variants ctx node)
  in
  List.iter
    (fun alt ->
      Alcotest.(check bool) "dp at least as good" true
        (r.total_cost <= Node.cost (finalize alt) costs +. 1e-6))
    [
      Node.hash_join ctx ~build:p ~probe:l;
      Node.hash_join ctx ~build:l ~probe:p;
      Node.block_nlj ctx ~outer:p ~inner:l;
    ]

let test_seek_cost_flips_join_method () =
  (* Section 8.1.1: the LINEITEM-PART join method is sensitive to the
     relative cost of random and sequential I/O.  Expensive seeks must
     drive the optimizer away from index-probe-heavy plans; expensive
     transfers away from full scans. *)
  let env = env Layout.Same_device in
  let q = query "Q19" in
  let expensive_seeks = scaled_costs env ~seek:10_000. ~xfer:1. ~cpu:1. in
  let expensive_xfer = scaled_costs env ~seek:0.0001 ~xfer:1. ~cpu:1. in
  let r_seek = Optimizer.optimize env q ~costs:expensive_seeks in
  let r_xfer = Optimizer.optimize env q ~costs:expensive_xfer in
  Alcotest.(check bool) "different plans" false
    (r_seek.signature = r_xfer.signature);
  (* Under expensive seeks, no index-NLJ into lineitem (random fetches). *)
  let has_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no INLJ when seeks cost 10000x" false
    (has_sub "INLJ" r_seek.signature);
  Alcotest.(check bool) "INLJ when seeks are nearly free" true
    (has_sub "INLJ" r_xfer.signature)

let test_estimated_optimality_over_samples () =
  (* Whatever cost vector we optimize under, re-optimizing under the same
     vector can never find something cheaper than re-costing the chosen
     plan (sanity of the DP + linear model). *)
  let env = env Layout.Per_table_devices in
  let q = query "Q14" in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 10 do
    let costs =
      Array.map
        (fun c -> c *. Float.pow 10. (Random.State.float st 4. -. 2.))
        (Defaults.base_costs env.Env.space)
    in
    let r = Optimizer.optimize env q ~costs in
    let other = Optimizer.optimize env q ~costs:(Defaults.base_costs env.Env.space) in
    Alcotest.(check bool) "chosen plan cheapest under its costs" true
      (r.total_cost <= Optimizer.cost_of_plan other.plan costs +. 1e-6)
  done

let test_access_paths_exposed () =
  let env = env Layout.Same_device in
  let paths = Optimizer.candidate_access_paths env (query "Q6") "l" in
  (* Table scan plus at least the matching shipdate index. *)
  Alcotest.(check bool) "several paths" true (List.length paths >= 2)

let test_no_relations_fails () =
  let env = env Layout.Same_device in
  let empty = Query.make ~name:"empty" ~relations:[] () in
  Alcotest.check_raises "failure"
    (Failure "Optimizer.optimize: query has no relations") (fun () ->
      ignore
        (Optimizer.optimize env empty
           ~costs:(Defaults.base_costs env.Env.space)))

(* An exhaustive reference enumerator for two-relation queries: every
   combination of access paths, join methods, orders and finalizations.
   The DP must match its optimum exactly under any cost vector. *)
let exhaustive_best env (q : Query.t) costs =
  let ctx = Node.make_ctx env q in
  let aliases = List.map (fun (r : Query.relation) -> r.alias) q.relations in
  match aliases with
  | [ a; b ] ->
      let pa = Node.access_paths ctx a and pb = Node.access_paths ctx b in
      let joins = Query.joins_between q a b in
      let sorted_versions alias node (j : Query.join) =
        let key =
          if j.left = alias then (j.left, j.left_col) else (j.right, j.right_col)
        in
        [ node; Node.sort ctx ~key:(Some key) node ]
      in
      let plans = ref [] in
      let add p = plans := p :: !plans in
      List.iter
        (fun l ->
          List.iter
            (fun r ->
              add (Node.block_nlj ctx ~outer:l ~inner:r);
              add (Node.block_nlj ctx ~outer:r ~inner:l);
              if joins <> [] then begin
                add (Node.hash_join ctx ~build:l ~probe:r);
                add (Node.hash_join ctx ~build:r ~probe:l)
              end;
              List.iter
                (fun j ->
                  List.iter
                    (fun l' ->
                      List.iter
                        (fun r' ->
                          match Node.merge_join ctx ~left:l' ~right:r' j with
                          | Some m -> add m
                          | None -> ())
                        (sorted_versions b r j))
                    (sorted_versions a l j))
                joins)
            pb)
        pa;
      (* Index nested loops in both directions over every index. *)
      List.iter
        (fun j ->
          List.iter
            (fun (outer_alias, inner_alias, outers) ->
              ignore outer_alias;
              List.iter
                (fun outer ->
                  List.iter
                    (fun idx ->
                      match Node.index_nlj ctx ~outer ~inner_alias idx j with
                      | Some p -> add p
                      | None -> ())
                    (Qsens_catalog.Schema.indexes_of env.Env.schema
                       (Query.relation q inner_alias).table))
                outers)
            [ (a, b, pa); (b, a, pb) ])
        joins;
      let finalized = List.concat_map (Node.finalize_variants ctx) !plans in
      List.fold_left
        (fun acc p -> Float.min acc (Node.cost p costs))
        infinity finalized
  | _ -> invalid_arg "exhaustive_best: want exactly two relations"

let test_dp_matches_exhaustive () =
  (* Both the prepared space (re-costed per probe) and the reference memo
     DP reach the exhaustive optimum. *)
  let env = env Layout.Per_table_and_index_devices in
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun qname ->
      let q = query qname in
      let prepared = Optimizer.prepare env q in
      for _ = 1 to 8 do
        let costs =
          Array.map
            (fun c -> c *. Float.pow 10. (Random.State.float st 6. -. 3.))
            (Defaults.base_costs env.Env.space)
        in
        let best = exhaustive_best env q costs in
        List.iter
          (fun (engine, (r : Optimizer.result)) ->
            Alcotest.(check bool)
              (qname ^ ": " ^ engine ^ " = exhaustive")
              true
              (Float.abs (r.total_cost -. best) <= 1e-6 *. best))
          [
            ("prepared", Optimizer.best prepared ~costs);
            ("memo", Qsens_oracle.optimize_memo env q ~costs);
          ]
      done)
    [ "Q14"; "Q19"; "Q13"; "Q22"; "Q16" ]

(* ------------------------------------------------------------------ *)
(* Bit-identity with the reference memo DP *)

let layouts =
  [ Layout.Same_device; Layout.Per_table_devices; Layout.Per_table_and_index_devices ]

let same_result (a : Optimizer.result) (b : Optimizer.result) =
  a.signature = b.signature
  && same_bits a.total_cost b.total_cost
  && Array.length a.plan.Node.usage = Array.length b.plan.Node.usage
  && Array.for_all2 same_bits a.plan.Node.usage b.plan.Node.usage

let groups_of env policy =
  Groups.make (Qsens_core.Experiment.scheme_for policy) env.Env.space

(* Multipliers per cost group: log-uniform over 10^-4..10^4, a box
   corner (each group at 10^-4 or 10^4), or all ones — the estimated
   costs, where equal-cost plans tie most often. *)
type theta_kind = Log_uniform | Corner | Ones

let theta_of st groups = function
  | Log_uniform ->
      Vec.init (Groups.dim groups) (fun _ ->
          Float.pow 10. (Random.State.float st 8. -. 4.))
  | Corner ->
      Vec.init (Groups.dim groups) (fun _ ->
          if Random.State.bool st then 1e-4 else 1e4)
  | Ones -> Groups.ones groups

let test_memo_all_queries () =
  (* One prepared space per query, layout and bushy cap, probed at the
     estimated costs, box corners and log-uniform points. *)
  List.iteri
    (fun li policy ->
      let env = env policy in
      let groups = groups_of env policy in
      let base = Defaults.base_costs env.Env.space in
      let st = Random.State.make [| 17; li |] in
      List.iter
        (fun (q : Query.t) ->
          List.iter
            (fun (bushy, kinds) ->
              let prepared = Optimizer.prepare ~max_bushy_side:bushy env q in
              List.iter
                (fun kind ->
                  let theta = theta_of st groups kind in
                  let costs = Groups.expand_costs groups ~base_costs:base ~theta in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s bushy %d: prepared == memo" q.name
                       (Layout.policy_name policy) bushy)
                    true
                    (same_result (Optimizer.best prepared ~costs)
                       (Qsens_oracle.optimize_memo ~max_bushy_side:bushy env q
                          ~costs)))
                kinds)
            [
              (2, [ Ones; Corner; Corner; Log_uniform; Log_uniform; Log_uniform ]);
              (1, [ Ones; Log_uniform ]);
              (3, [ Ones; Corner ]);
            ])
        (Qsens_tpch.Queries.all ~sf))
    layouts

let envs = List.map (fun policy -> (policy, env policy)) layouts
let queries = Array.of_list (Qsens_tpch.Queries.all ~sf)

let prop_memo_bits =
  let gen =
    QCheck.Gen.(
      quad
        (int_bound (Array.length queries - 1))
        (int_bound 2)
        (pair (int_range 1 3) (oneofl [ Log_uniform; Corner; Ones ]))
        int)
  in
  QCheck.Test.make ~count:40
    ~name:"optimize == memo DP: signature, usage and cost bits"
    (QCheck.make gen) (fun (qi, li, (bushy, kind), seed) ->
      let policy, env = List.nth envs li in
      let groups = groups_of env policy in
      let theta = theta_of (Random.State.make [| seed |]) groups kind in
      let costs =
        Groups.expand_costs groups
          ~base_costs:(Defaults.base_costs env.Env.space) ~theta
      in
      let q = queries.(qi) in
      same_result
        (Optimizer.optimize ~max_bushy_side:bushy env q ~costs)
        (Qsens_oracle.optimize_memo ~max_bushy_side:bushy env q ~costs))

(* Tie-heavy cost vectors: every entry drawn from {0, 1, 2, 4}, so many
   alternatives cost exactly the same (or nothing) and most slots are
   settled by the near-tie replay, whose order decides the winner. *)
let prop_memo_ties =
  let gen =
    QCheck.Gen.(
      quad
        (int_bound (Array.length queries - 1))
        (int_bound 2) (int_range 1 3) int)
  in
  QCheck.Test.make ~count:40
    ~name:"optimize == memo DP on tie-heavy costs in {0, 1, 2, 4}"
    (QCheck.make gen) (fun (qi, li, bushy, seed) ->
      let _, env = List.nth envs li in
      let st = Random.State.make [| seed |] in
      let costs =
        Array.init (Space.dim env.Env.space) (fun _ ->
            [| 0.; 1.; 2.; 4. |].(Random.State.int st 4))
      in
      let q = queries.(qi) in
      same_result
        (Optimizer.optimize ~max_bushy_side:bushy env q ~costs)
        (Qsens_oracle.optimize_memo ~max_bushy_side:bushy env q ~costs))

(* Golden digest of the optimizer's answers — signature, usage bits and
   total-cost bits for every query x layout x 8 seeded cost vectors —
   generated by the memo DP before the prepared plan space replaced it.
   The differential tests share Node's constructors with the reference;
   this one also catches a bit change inside a constructor.  The same 528
   probes also return the total of [optimizer.rechecks]: a near tie is a
   slot whose (minimum, runner-up) pair lies within the window, so an
   unchanged total shows every slot's pair stayed put, not only the final
   plans. *)
let golden_run =
  lazy
    (let buf = Buffer.create (1 lsl 16) in
     Qsens_obs.Obs.start ();
     Fun.protect ~finally:Qsens_obs.Obs.stop @@ fun () ->
     List.iteri
       (fun li policy ->
         let env = env policy in
         let groups = groups_of env policy in
         let base = Defaults.base_costs env.Env.space in
         let st = Random.State.make [| 2003; li |] in
         let thetas =
           List.init 8 (fun _ ->
               Vec.init (Groups.dim groups) (fun _ ->
                   Float.pow 10. (Random.State.float st 8. -. 4.)))
         in
         List.iter
           (fun (q : Query.t) ->
             let prepared = Optimizer.prepare env q in
             List.iter
               (fun theta ->
                 let costs = Groups.expand_costs groups ~base_costs:base ~theta in
                 let r = Optimizer.best prepared ~costs in
                 Printf.bprintf buf "%s %s %Lx" q.name r.signature
                   (Int64.bits_of_float r.total_cost);
                 Array.iter
                   (fun u -> Printf.bprintf buf " %Lx" (Int64.bits_of_float u))
                   r.plan.Node.usage;
                 Buffer.add_char buf '\n')
               thetas)
           (Qsens_tpch.Queries.all ~sf))
       layouts;
     let rechecks =
       List.fold_left
         (fun acc (m, v) ->
           match v with
           | Qsens_obs.Obs.Vcount n
             when String.equal (Qsens_obs.Obs.name m) "optimizer.rechecks" ->
               acc + n
           | _ -> acc)
         0 (Qsens_obs.Obs.snapshot ())
     in
     (Digest.to_hex (Digest.string (Buffer.contents buf)), rechecks))

let fixture name = In_channel.with_open_text name In_channel.input_all |> String.trim

let test_golden_digest () =
  Alcotest.(check string) "digest" (fixture "fixtures/optimizer.digest")
    (fst (Lazy.force golden_run))

let test_golden_rechecks () =
  Alcotest.(check string) "optimizer.rechecks over the golden probes"
    (fixture "fixtures/optimizer.rechecks")
    (string_of_int (snd (Lazy.force golden_run)))

let test_degenerate_costs () =
  (* All-zero costs tie every alternative; a negative or non-finite entry
     voids the near-tie window, so every slot is settled exactly.  Either
     way the answer is the memo DP's, bit for bit (NaN costs included). *)
  List.iter
    (fun policy ->
      let env = env policy in
      let base = Defaults.base_costs env.Env.space in
      List.iter
        (fun qname ->
          let q = query qname in
          let prepared = Optimizer.prepare env q in
          List.iter
            (fun (what, costs) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s %s" qname (Layout.policy_name policy) what)
                true
                (same_result (Optimizer.best prepared ~costs)
                   (Qsens_oracle.optimize_memo env q ~costs)))
            [
              ("zero", Vec.zero (Array.length base));
              ("negative", Array.mapi (fun i c -> if i = 0 then -.c else c) base);
              ("nan", Array.mapi (fun i c -> if i = 1 then nan else c) base);
              ("infinite", Array.mapi (fun i c -> if i = 1 then infinity else c) base);
            ])
        [ "Q3"; "Q5"; "Q14" ])
    [ Layout.Same_device; Layout.Per_table_and_index_devices ]

let test_costs_validated () =
  let env = env Layout.Per_table_devices in
  let prepared = Optimizer.prepare env (query "Q3") in
  let base = Defaults.base_costs env.Env.space in
  List.iter
    (fun (what, costs) ->
      match Optimizer.best prepared ~costs with
      | _ -> Alcotest.failf "%s cost vector accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("shorter", Array.sub base 0 (Array.length base - 1));
      ("longer", Array.append base [| 1. |]);
    ]

(* ------------------------------------------------------------------ *)
(* Narrow interface *)

let test_narrow_explain_matches_white_box () =
  let env = env Layout.Per_table_and_index_devices in
  let groups = groups_of env Layout.Per_table_and_index_devices in
  let base = Defaults.base_costs env.Env.space in
  let st = Random.State.make [| 3 |] in
  List.iter
    (fun qname ->
      let q = query qname in
      let narrow = Narrow.create env q in
      List.iter
        (fun kind ->
          let theta = theta_of st groups kind in
          let costs = Groups.expand_costs groups ~base_costs:base ~theta in
          let signature, cost =
            match Narrow.explain narrow ~costs with
            | Ok r -> r
            | Error _ -> Alcotest.fail "fault-free explain cannot fail"
          in
          let r = Qsens_oracle.optimize_memo env q ~costs in
          Alcotest.(check string) "same plan" r.signature signature;
          Alcotest.(check bool) "same cost" true (same_bits cost r.total_cost))
        [ Ones; Corner; Log_uniform; Log_uniform; Log_uniform ])
    [ "Q3"; "Q9"; "Q14" ]

let test_narrow_recost () =
  let env = env Layout.Same_device in
  let q = query "Q3" in
  let narrow = Narrow.create env q in
  let costs = Defaults.base_costs env.Env.space in
  let signature, cost =
    match Narrow.explain narrow ~costs with
    | Ok r -> r
    | Error _ -> Alcotest.fail "fault-free explain cannot fail"
  in
  (match Narrow.recost narrow ~signature ~costs with
  | Ok c -> Alcotest.(check (float 1e-9)) "recost at same point" cost c
  | Error _ -> Alcotest.fail "known signature must recost");
  (* Doubling every cost doubles the plan's linear cost. *)
  (match Narrow.recost narrow ~signature ~costs:(Vec.scale 2. costs) with
  | Ok c -> Alcotest.(check bool) "linear" true (Float.abs (c -. (2. *. cost)) <= 1e-6 *. c)
  | Error _ -> Alcotest.fail "recost failed");
  (* A cache miss is a distinct, recoverable condition, not a generic
     failure: callers can re-explain instead of dropping the sample. *)
  (match Narrow.recost narrow ~signature:"nope" ~costs with
  | Error (Qsens_faults.Fault.Unknown_signature "nope") -> ()
  | Ok _ -> Alcotest.fail "unknown signature must not recost"
  | Error e ->
      Alcotest.fail
        ("expected Unknown_signature, got "
        ^ Qsens_faults.Fault.error_to_string e));
  Alcotest.(check int) "one optimizer call" 1 (Narrow.calls narrow)

let () =
  Alcotest.run "optimizer"
    [
      ( "dp",
        [
          Alcotest.test_case "cost consistency" `Quick test_consistency;
          Alcotest.test_case "single table" `Quick test_single_table;
          Alcotest.test_case "beats hand alternatives" `Quick
            test_optimal_among_alternatives;
          Alcotest.test_case "seek cost flips join method" `Quick
            test_seek_cost_flips_join_method;
          Alcotest.test_case "optimality over samples" `Quick
            test_estimated_optimality_over_samples;
          Alcotest.test_case "access paths" `Quick test_access_paths_exposed;
          Alcotest.test_case "dp matches exhaustive" `Slow
            test_dp_matches_exhaustive;
          Alcotest.test_case "empty query" `Quick test_no_relations_fails;
          Alcotest.test_case "costs validated" `Quick test_costs_validated;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "prepared == memo, all queries and layouts" `Slow
            test_memo_all_queries;
          QCheck_alcotest.to_alcotest prop_memo_bits;
          QCheck_alcotest.to_alcotest prop_memo_ties;
          Alcotest.test_case "golden digest" `Slow test_golden_digest;
          Alcotest.test_case "golden near-tie rechecks" `Slow test_golden_rechecks;
          Alcotest.test_case "degenerate costs == memo" `Quick
            test_degenerate_costs;
        ] );
      ( "narrow",
        [
          Alcotest.test_case "explain matches white box" `Quick
            test_narrow_explain_matches_white_box;
          Alcotest.test_case "recost" `Quick test_narrow_recost;
        ] );
    ]
