(* Tier-1 tests for the resilient sensitivity service (lib/server):
   JSON wire format round-trips, the byte-budgeted LRU, the degradation
   ladder, response invariance under arbitrary cache state (hits,
   misses, invalidations, evictions), snapshot warm-starts, overload
   shedding, circuit breaking, and the seeded fault-injected soak.

   The load-bearing property mirrors the kernel suite's: a response is
   a pure function of the request — never of cache state, pool size
   (for non-degraded answers), fault history, or request ordering. *)

module Json = Qsens_server.Json
module Lru = Qsens_server.Lru
module Server = Qsens_server.Server
module Soak = Qsens_server.Soak
module Fault = Qsens_faults.Fault
module Pool = Qsens_parallel.Pool

let pool2 = Pool.create ~domains:2 ()
let () = at_exit (fun () -> Pool.shutdown pool2)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* JSON *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> Bool.equal x y
  | Json.Num x, Json.Num y -> same_float x y
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
           x y
  | _ -> false

let test_json_golden () =
  let v =
    Json.Obj
      [
        ("a", Json.num 1.);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y\n" ]);
        ("c", Json.num 0.1);
      ]
  in
  Alcotest.(check string)
    "compact print"
    "{\"a\":1,\"b\":[true,null,\"x\\\"y\\n\"],\"c\":0.10000000000000001}"
    (Json.to_string v);
  match Json.of_string (Json.to_string v) with
  | Error m -> Alcotest.fail m
  | Ok v' -> Alcotest.(check bool) "round trip" true (json_equal v v')

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "true false";
  bad "\"unterminated";
  bad "{\"a\":nope}"

let test_json_non_finite () =
  List.iter
    (fun (f, s) ->
      let rendered = Json.to_string (Json.num f) in
      Alcotest.(check string) "encoding" s rendered;
      match Option.bind (Result.to_option (Json.of_string rendered))
              Json.to_float with
      | Some f' ->
          Alcotest.(check bool) "decodes back" true (same_float f f')
      | None -> Alcotest.fail "did not decode")
    [
      (Float.nan, "\"nan\"");
      (Float.infinity, "\"inf\"");
      (Float.neg_infinity, "\"-inf\"");
      (* Not a sentinel, but the other sign-sensitive edge: the encoder
         must keep the sign bit through the integer fast path. *)
      (-0., "-0");
    ]

let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map Json.num (float_range (-1e6) 1e6);
              map Json.num (oneofl [ Float.nan; Float.infinity; 0.1; 3. ]);
              map (fun s -> Json.Str s) (string_size ~gen:printable (return 8));
            ]
        in
        if n <= 0 then scalar
        else
          frequency
            [
              (2, scalar);
              (1, map (fun l -> Json.List l) (list_size (return 3) (self (n / 2))));
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (return 3)
                     (pair (string_size ~gen:printable (return 4)) (self (n / 2))))
              );
            ]))

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"json: parse (print v) == v"
    (QCheck.make gen_json)
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> json_equal v v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* LRU *)

let lru_of_pairs budget pairs =
  let c = Lru.create ~name:"test" ~byte_budget:budget ~size_of:String.length in
  List.iter (fun (k, v) -> Lru.put c k v) pairs;
  c

let test_lru_eviction_order () =
  let c = lru_of_pairs 10 [ ("a", "xxxx"); ("b", "xxxx"); ("c", "xxxx") ] in
  (* 12 bytes > 10: "a" (oldest) evicted. *)
  Alcotest.(check int) "entries" 2 (Lru.length c);
  Alcotest.(check bool) "a gone" false (Lru.mem c "a");
  Alcotest.(check bool) "b stays" true (Lru.mem c "b");
  Alcotest.(check int) "one eviction" 1 (Lru.stats c).Lru.evictions

let test_lru_recency () =
  let c = lru_of_pairs 10 [ ("a", "xxxx"); ("b", "xxxx") ] in
  ignore (Lru.find c "a" : string option);
  (* "a" is now most recent, so inserting "c" evicts "b". *)
  Lru.put c "c" "xxxx";
  Alcotest.(check bool) "a stays" true (Lru.mem c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions

let test_lru_replace_and_oversized () =
  let c = lru_of_pairs 10 [ ("a", "xxxx") ] in
  Lru.put c "a" "yy";
  Alcotest.(check int) "replacement size" 2 (Lru.bytes c);
  Lru.put c "huge" (String.make 11 'z');
  Alcotest.(check bool) "oversized not admitted" false (Lru.mem c "huge");
  Alcotest.(check int) "bytes unchanged" 2 (Lru.bytes c)

let test_lru_alist_oldest_first () =
  let c = lru_of_pairs 100 [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  ignore (Lru.find c "a" : string option);
  Alcotest.(check (list (pair string string)))
    "oldest first, recency respected"
    [ ("b", "2"); ("c", "3"); ("a", "1") ]
    (Lru.to_alist c);
  let hits_before = (Lru.stats c).Lru.hits in
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check int) "stats survive clear" hits_before (Lru.stats c).Lru.hits

(* ------------------------------------------------------------------ *)
(* Server requests *)

let wc_request ?(query = "Q6") ?(layout = "same") ?(budget = 1_000_000_000)
    ?(id = 1) () =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"worst_case\",\"query\":%S,\"layout\":%S,\
     \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\"budget\":%d}"
    id query layout budget

let select_request ?(query = "Q6") ?(layout = "same")
    ?(budget = 1_000_000_000) ?(id = 1) () =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"select\",\"query\":%S,\"layout\":%S,\
     \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\"budget\":%d}"
    id query layout budget

let small_config =
  {
    Server.default_config with
    Server.mc_samples = 64;
    queue_limit = 2;
    cache_bytes = 1 lsl 20;
  }

let response_field line key =
  match Json.of_string line with
  | Error m -> Alcotest.fail ("unparseable response: " ^ m)
  | Ok resp -> Json.member key resp

let str_field line key =
  Option.value ~default:"" (Option.bind (response_field line key) Json.to_str)

let bool_field line key =
  Option.value ~default:false
    (Option.bind (response_field line key) Json.to_bool)

let test_server_basics () =
  let t = Server.create ~config:small_config () in
  Alcotest.(check bool) "ping ok" true
    (bool_field (Server.handle_line t "{\"id\":1,\"op\":\"ping\"}") "ok");
  let unknown = Server.handle_line t "{\"op\":\"frobnicate\"}" in
  Alcotest.(check bool) "unknown op not ok" false (bool_field unknown "ok");
  let malformed = Server.handle_line t "{{{" in
  Alcotest.(check bool) "malformed not ok" false (bool_field malformed "ok");
  let bad_query =
    Server.handle_line t (wc_request ~query:"Q99" ())
  in
  Alcotest.(check string) "unknown query kind" "malformed"
    (match
       Option.bind (response_field bad_query "error") (Json.member "kind")
     with
    | Some (Json.Str k) -> k
    | _ -> "");
  let bad_deltas =
    Server.handle_line t
      "{\"op\":\"worst_case\",\"query\":\"Q6\",\"deltas\":[0.5]}"
  in
  Alcotest.(check bool) "sub-1 deltas rejected" false (bool_field bad_deltas "ok")

let test_degradation_ladder () =
  let t = Server.create ~config:small_config () in
  let full = Server.handle_line t (wc_request ~budget:1_000_000_000 ()) in
  Alcotest.(check string) "full budget path" "exhaustive sweep"
    (str_field full "path");
  Alcotest.(check bool) "full budget not degraded" false
    (bool_field full "degraded");
  let tight = Server.handle_line t (wc_request ~budget:40 ~id:2 ()) in
  Alcotest.(check string) "tight budget path" "branch-and-bound"
    (str_field tight "path");
  Alcotest.(check bool) "tight budget degraded" true
    (bool_field tight "degraded");
  let floor = Server.handle_line t (wc_request ~budget:4 ~id:3 ()) in
  Alcotest.(check string) "floor path" "monte-carlo estimate"
    (str_field floor "path");
  Alcotest.(check bool) "floor annotated" true
    (String.length (str_field floor "confidence") > 0);
  (* The degraded tiers still answer on every requested delta. *)
  List.iter
    (fun line ->
      match Option.bind (response_field line "points") Json.to_list with
      | Some pts -> Alcotest.(check int) "three points" 3 (List.length pts)
      | None -> Alcotest.fail "no points")
    [ full; tight; floor ]

let test_select_op () =
  let t = Server.create ~config:small_config () in
  let full = Server.handle_line t (select_request ()) in
  Alcotest.(check bool) "select ok" true (bool_field full "ok");
  Alcotest.(check string) "full budget path" "exhaustive sweep"
    (str_field full "path");
  Alcotest.(check bool) "not degraded" false (bool_field full "degraded");
  let choices =
    match Option.bind (response_field full "choices") Json.to_list with
    | Some cs -> cs
    | None -> Alcotest.fail "no choices"
  in
  Alcotest.(check int) "one choice per delta" 3 (List.length choices);
  let int_of c key =
    match Option.bind (Json.member key c) Json.to_int with
    | Some i -> i
    | None -> Alcotest.fail ("choice missing " ^ key)
  in
  List.iter
    (fun c ->
      (* LEC == classic over the symmetric box (DESIGN.md section 15). *)
      Alcotest.(check int) "lec == classic" (int_of c "classic")
        (int_of c "lec"))
    choices;
  (match choices with
  | point :: _ ->
      (* First delta is 1: the box is a point, all rules coincide. *)
      Alcotest.(check int) "point box minimax == classic"
        (int_of point "classic") (int_of point "minimax")
  | [] -> ());
  (* Warm replay from the caches must be byte-identical. *)
  Alcotest.(check string) "cold == warm" full
    (Server.handle_line t (select_request ()));
  (* Out of budget: the floor answers, annotated as an estimate. *)
  let floor = Server.handle_line t (select_request ~budget:4 ~id:2 ()) in
  Alcotest.(check bool) "floor ok" true (bool_field floor "ok");
  Alcotest.(check string) "floor path" "monte-carlo estimate"
    (str_field floor "path");
  Alcotest.(check bool) "floor degraded" true (bool_field floor "degraded");
  Alcotest.(check bool) "floor annotated" true
    (String.length (str_field floor "confidence") > 0);
  match Option.bind (response_field floor "choices") Json.to_list with
  | Some cs -> Alcotest.(check int) "floor still answers all deltas" 3
      (List.length cs)
  | None -> Alcotest.fail "floor has no choices"

let test_batch_shedding () =
  let t = Server.create ~config:small_config () in
  let line =
    "{\"op\":\"batch\",\"requests\":[{\"id\":1,\"op\":\"ping\"},{\"id\":2,\
     \"op\":\"ping\"},{\"id\":3,\"op\":\"ping\"},{\"id\":4,\"op\":\"ping\"}]}"
  in
  let resp = Server.handle_line t line in
  match Option.bind (response_field resp "responses") Json.to_list with
  | None -> Alcotest.fail "no responses"
  | Some subs ->
      let oks =
        List.filter
          (fun s ->
            Option.value ~default:false
              (Option.bind (Json.member "ok" s) Json.to_bool))
          subs
      in
      Alcotest.(check int) "queue_limit processed" 2 (List.length oks);
      Alcotest.(check int) "rest shed" 2 (List.length subs - List.length oks);
      let kinds =
        List.filter_map
          (fun s ->
            Option.bind
              (Option.bind (Json.member "error" s) (Json.member "kind"))
              Json.to_str)
          subs
      in
      Alcotest.(check (list string)) "typed sheds" [ "shed"; "shed" ] kinds

let test_circuit_breaker () =
  let plan =
    match Fault.plan_of_string "fail=1,seed=3" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let t =
    Server.create ~config:small_config ~faults:(Fault.injector plan) ()
  in
  let kinds =
    List.init 7 (fun i ->
        let resp =
          Server.handle_line t
            (Printf.sprintf
               "{\"id\":%d,\"op\":\"candidates\",\"query\":\"Q6\"}" i)
        in
        match
          Option.bind (response_field resp "error") (Json.member "kind")
        with
        | Some (Json.Str k) -> k
        | _ -> "ok")
  in
  Alcotest.(check (list string))
    "five failures trip the breaker"
    [
      "failed"; "failed"; "failed"; "failed"; "failed"; "circuit_open";
      "circuit_open";
    ]
    kinds;
  (* The loop survived all of it. *)
  Alcotest.(check bool) "still serving" true
    (bool_field (Server.handle_line t "{\"op\":\"ping\"}") "ok")

let error_kind line =
  match Option.bind (response_field line "error") (Json.member "kind") with
  | Some (Json.Str k) -> k
  | _ -> "ok"

let error_message line =
  Option.value ~default:""
    (Option.bind
       (Option.bind (response_field line "error") (Json.member "message"))
       Json.to_str)

let analysis_line ~op extra =
  Printf.sprintf
    "{\"op\":%S,\"query\":\"Q6\",\"deltas\":[1,10,100],\"max_probes\":2000%s}"
    op extra

let test_budget_validation () =
  let t = Server.create ~config:small_config () in
  List.iter
    (fun op ->
      (* A present budget must be a positive integer: 0, negatives and
         fractions are client errors, not a silent fall-back to the
         loosest (default) budget. *)
      List.iter
        (fun budget ->
          let resp =
            Server.handle_line t (analysis_line ~op (",\"budget\":" ^ budget))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s budget %s malformed" op budget)
            "malformed" (error_kind resp);
          Alcotest.(check string) "message"
            "\"budget\" must be a positive integer" (error_message resp))
        [ "0"; "-5"; "1.5"; "\"64\""; "null" ];
      let tight = Server.handle_line t (analysis_line ~op ",\"budget\":4") in
      Alcotest.(check string)
        (op ^ " budget 4 reaches the floor")
        "monte-carlo estimate" (str_field tight "path");
      let absent = Server.handle_line t (analysis_line ~op "") in
      Alcotest.(check (option int))
        (op ^ " absent budget is the default")
        (Some Server.default_config.default_budget)
        (Option.bind (response_field absent "budget") Json.to_int))
    [ "worst_case"; "select" ]

let test_sf_validation () =
  let t = Server.create ~config:small_config () in
  let bad =
    [ "-1"; "0"; "-0"; "\"nan\""; "\"inf\""; "\"-inf\""; "\"100\""; "null" ]
  in
  List.iter
    (fun sf ->
      let resp =
        Server.handle_line t (analysis_line ~op:"worst_case" (",\"sf\":" ^ sf))
      in
      Alcotest.(check string) ("sf " ^ sf ^ " malformed") "malformed"
        (error_kind resp);
      Alcotest.(check string) "message" "\"sf\" must be a finite number > 0"
        (error_message resp))
    bad;
  (* Client errors never count against the breaker: a well-formed
     request after eight bad ones is served, not refused. *)
  let good =
    Server.handle_line t (analysis_line ~op:"worst_case" ",\"sf\":100")
  in
  Alcotest.(check string) "good request after bad sf" "ok" (error_kind good);
  (* Positive but so small that the query's join selectivities leave
     (0, 1]: rejected by the query builder, still a client error. *)
  List.iter
    (fun op ->
      Alcotest.(check string) (op ^ " with sf 1e-9 malformed") "malformed"
        (error_kind (Server.handle_line t (analysis_line ~op ",\"sf\":1e-9"))))
    [ "worst_case"; "candidates" ];
  Alcotest.(check string) "still served" "ok"
    (error_kind (Server.handle_line t (analysis_line ~op:"worst_case" "")));
  Alcotest.(check string) "candidates op validates sf too" "malformed"
    (error_kind
       (Server.handle_line t
          "{\"op\":\"candidates\",\"query\":\"Q6\",\"sf\":-1}"))

(* Huge but finite scale factors push plan usage past float range.
   Every analysis op answers such a request [malformed] (a client error
   that never counts against the breaker) — or, where the usage stays
   finite (Q6 at 1e100), answers [ok] with every curve point inside
   Theorem 1.  Never [ok] with infinities, never [failed]. *)
let test_huge_sf () =
  let t = Server.create ~config:small_config () in
  let line ~op ~query sf =
    Printf.sprintf
      "{\"op\":%S,\"query\":%S,\"layout\":\"same\",\"deltas\":[1,10,100],\
       \"sf\":%s}"
      op query sf
  in
  List.iter
    (fun (query, sf, expect) ->
      List.iter
        (fun op ->
          let resp = Server.handle_line t (line ~op ~query sf) in
          let what = Printf.sprintf "%s %s sf %s" op query sf in
          Alcotest.(check string) what expect (error_kind resp);
          if String.equal op "worst_case" && String.equal expect "ok" then
            match response_field resp "points" with
            | Some (Json.List points) ->
                List.iter
                  (fun p ->
                    match
                      ( Option.bind (Json.member "delta" p) Json.to_float,
                        Option.bind (Json.member "gtc" p) Json.to_float )
                    with
                    | Some delta, Some gtc ->
                        Alcotest.(check bool) (what ^ ": Theorem 1") true
                          (Qsens_core.Bounds.within_theorem1 ~delta gtc)
                    | _ -> Alcotest.fail (what ^ ": point without a finite gtc"))
                  points
            | _ -> Alcotest.fail (what ^ ": no points"))
        [ "worst_case"; "select"; "candidates" ])
    [
      ("Q3", "1e100", "malformed");
      ("Q3", "1e300", "malformed");
      ("Q6", "1e300", "malformed");
      ("Q6", "1e100", "ok");
    ];
  Alcotest.(check string) "still served" "ok"
    (error_kind (Server.handle_line t (analysis_line ~op:"worst_case" "")))

let test_candidates_delta_validation () =
  let t = Server.create ~config:small_config () in
  List.iter
    (fun delta ->
      let resp =
        Server.handle_line t
          (Printf.sprintf
             "{\"op\":\"candidates\",\"query\":\"Q6\",\"max_probes\":2000,\
              \"delta\":%s}"
             delta)
      in
      Alcotest.(check string) ("delta " ^ delta ^ " malformed") "malformed"
        (error_kind resp);
      Alcotest.(check string) "same message as the analysis ops"
        "\"delta\" must be >= 1" (error_message resp))
    [ "0.5"; "0"; "-3"; "\"nan\"" ];
  let ok =
    Server.handle_line t
      "{\"op\":\"candidates\",\"query\":\"Q6\",\"max_probes\":2000,\
       \"delta\":10}"
  in
  Alcotest.(check string) "delta 10 accepted" "ok" (error_kind ok)

(* ------------------------------------------------------------------ *)
(* Golden ladder: one server answers a fixed grid of worst_case and
   select requests — three cells of growing dimension, budgets from
   ample down to the Monte-Carlo floor — and then its stats.  The MD5
   of every response line pins points, paths, spent units, degradation
   flags and cache hit/miss/eviction counts at once, so any change to
   the ladder's charges, trip points or evaluation order shows up here.
   The grid reaches the exhaustive, branch-and-bound and Monte-Carlo
   tiers of both ops; none of its inputs reaches the linear-fractional
   tier. *)

let ladder_budgets =
  [ 1_000_000_000; 100_000; 20_000; 5000; 2000; 500; 64; 4 ]

let ladder_lines () =
  List.concat_map
    (fun (query, layout) ->
      List.concat_map
        (fun select ->
          List.map (fun budget -> (select, query, layout, budget)) ladder_budgets)
        [ false; true ])
    [ ("Q6", "same"); ("Q3", "per-table"); ("Q10", "per-table-and-index") ]
  |> List.mapi (fun id (select, query, layout, budget) ->
         if select then select_request ~query ~layout ~budget ~id ()
         else wc_request ~query ~layout ~budget ~id ())

let ladder_digest = "4e1e2815224921f4416b36bd3c27ccaf"

let test_ladder_golden () =
  let t = Server.create ~config:small_config () in
  let responses = List.map (Server.handle_line t) (ladder_lines ()) in
  let stats = Server.handle_line t "{\"op\":\"stats\"}" in
  let tiers =
    List.sort_uniq compare
      (List.map
         (fun r -> (str_field r "op", str_field r "path"))
         responses)
  in
  List.iter
    (fun op ->
      List.iter
        (fun path ->
          Alcotest.(check bool)
            (Printf.sprintf "%s reaches %s" op path)
            true
            (List.mem (op, path) tiers))
        [ "exhaustive sweep"; "branch-and-bound"; "monte-carlo estimate" ])
    [ "worst_case"; "select" ];
  Alcotest.(check string) "response digest" ladder_digest
    (Digest.to_hex (Digest.string (String.concat "\n" (responses @ [ stats ]))))

(* ------------------------------------------------------------------ *)
(* Response invariance under cache state (the satellite qcheck).

   Op alphabet: three worst_case variants (budgets spanning the whole
   ladder), a second query (so a tiny byte budget forces evictions),
   and the invalidation scopes.  Whatever sequence runs — whatever
   mixture of hits, misses, invalidations and evictions it produces —
   every worst_case response must be byte-identical to the canonical
   response computed on a fresh server. *)

let op_lines =
  [|
    wc_request ~id:0 ~budget:1_000_000_000 ();
    wc_request ~id:1 ~budget:64 ();
    wc_request ~id:2 ~budget:4 ();
    wc_request ~id:3 ~query:"Q1" ~budget:1_000_000_000 ();
    select_request ~id:4 ~budget:1_000_000_000 ();
    select_request ~id:5 ~query:"Q1" ~budget:64 ();
    "{\"id\":6,\"op\":\"invalidate\",\"scope\":\"all\"}";
    "{\"id\":7,\"op\":\"invalidate\",\"scope\":\"sweeps\"}";
    "{\"id\":8,\"op\":\"invalidate\",\"scope\":\"candidates\"}";
  |]

let tiny_cache_config =
  { small_config with Server.cache_bytes = 300 (* forces evictions *) }

let canonical =
  let memo = Hashtbl.create 8 in
  fun op ->
    match Hashtbl.find_opt memo op with
    | Some r -> r
    | None ->
        let fresh = Server.create ~config:tiny_cache_config () in
        let r = Server.handle_line fresh op_lines.(op) in
        Hashtbl.replace memo op r;
        r

let prop_cache_state_invariance =
  QCheck.Test.make ~count:30
    ~name:"server: responses invariant under hit/miss/eviction interleaving"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 10) (int_range 0 8)))
    (fun ops ->
      let t = Server.create ~config:tiny_cache_config () in
      List.for_all
        (fun op ->
          let resp = Server.handle_line t op_lines.(op) in
          if op <= 5 then String.equal resp (canonical op) else true)
        ops)

let test_snapshot_reload () =
  let path = Filename.temp_file "qsens_server" ".snap" in
  let a = Server.create ~config:small_config () in
  let first = Server.handle_line a (wc_request ()) in
  Server.save_snapshot a path;
  let b =
    Server.create
      ~config:{ small_config with Server.snapshot_path = Some path }
      ()
  in
  let warmed = Server.handle_line b (wc_request ()) in
  Alcotest.(check string) "warm response identical" first warmed;
  let stats = Server.handle_line b "{\"op\":\"stats\"}" in
  let cache_stat cache field =
    match
      Option.bind
        (Option.bind
           (Option.bind (response_field stats "caches") (Json.member cache))
           (Json.member field))
        Json.to_int
    with
    | Some n -> n
    | None -> Alcotest.fail "missing cache stat"
  in
  (* The warm server served from the snapshot: hits, no discovery miss. *)
  Alcotest.(check int) "candidates hit" 1 (cache_stat "candidates" "hits");
  Alcotest.(check int) "candidates no miss" 0
    (cache_stat "candidates" "misses");
  Alcotest.(check int) "sweep hit" 1 (cache_stat "sweeps" "hits");
  (* A corrupt snapshot is rejected without touching the caches. *)
  let oc = open_out path in
  output_string oc "not a snapshot";
  close_out oc;
  Alcotest.(check bool) "corrupt snapshot rejected" false
    (Server.load_snapshot b path);
  let again = Server.handle_line b (wc_request ()) in
  Alcotest.(check string) "caches intact after rejected load" first again;
  Sys.remove path

let test_snapshot_failure () =
  (* An unwritable temp location: the op maps the Sys_error to a typed
     "failed" response, nothing appears at the target path, and the
     loop keeps serving; with the obstruction cleared the same op
     succeeds and leaves no temp file behind. *)
  let t = Server.create ~config:small_config () in
  ignore (Server.handle_line t (wc_request ()) : string);
  let dir = Filename.temp_file "qsens_snapfail" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "snap" in
  Sys.mkdir (path ^ ".tmp") 0o700 (* blocks open_out_bin *);
  (match Server.save_snapshot t path with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  let snap_line id =
    Printf.sprintf "{\"id\":%d,\"op\":\"snapshot\",\"path\":%S}" id path
  in
  let resp = Server.handle_line t (snap_line 9) in
  Alcotest.(check bool) "failed snapshot not ok" false (bool_field resp "ok");
  Alcotest.(check string) "typed failure" "failed"
    (match
       Option.bind (response_field resp "error") (Json.member "kind")
     with
    | Some (Json.Str k) -> k
    | _ -> "");
  Alcotest.(check bool) "no snapshot file appeared" false
    (Sys.file_exists path);
  Alcotest.(check bool) "loop alive" true
    (bool_field (Server.handle_line t "{\"op\":\"ping\"}") "ok");
  Sys.rmdir (path ^ ".tmp");
  let good = Server.handle_line t (snap_line 10) in
  Alcotest.(check bool) "snapshot ok after clearing" true
    (bool_field good "ok");
  Alcotest.(check bool) "snapshot written" true (Sys.file_exists path);
  Alcotest.(check bool) "no temp left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check bool) "snapshot loads back" true
    (Server.load_snapshot t path);
  Sys.remove path;
  Sys.rmdir dir

let test_pool_independence () =
  (* Non-degraded responses must not depend on the pool size. *)
  let seq = Server.create ~config:small_config () in
  let par = Server.create ~config:small_config ~pool:pool2 () in
  List.iter
    (fun req ->
      Alcotest.(check string)
        "pool-1 == pool-2 response"
        (Server.handle_line seq req) (Server.handle_line par req))
    [ wc_request (); wc_request ~query:"Q1" ~layout:"per-table" ~id:2 () ]

(* ------------------------------------------------------------------ *)
(* The fault-injected soak *)

let check_soak ?(want_degraded = true) name (o : Soak.outcome) =
  List.iter
    (fun m -> Printf.printf "%s mismatch: %s\n" name m)
    o.Soak.mismatches;
  Alcotest.(check (list string)) (name ^ ": no mismatches") [] o.Soak.mismatches;
  Alcotest.(check bool) (name ^ ": alive") true o.Soak.alive;
  Alcotest.(check bool) (name ^ ": verified > 0") true (o.Soak.verified > 0);
  Alcotest.(check bool) (name ^ ": sheds seen") true (o.Soak.shed > 0);
  if want_degraded then
    Alcotest.(check bool) (name ^ ": degradation seen") true (o.Soak.degraded > 0)

let test_soak_sequential () =
  check_soak "sequential" (Soak.run Soak.default_config)

let test_soak_interleaved () =
  let o = Soak.run { Soak.default_config with Soak.ordering = Soak.Interleaved } in
  check_soak "interleaved" o

let test_soak_faulted () =
  let plan =
    match Fault.plan_of_string "fail=0.3,timeout=0.2,seed=11" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let o =
    Soak.run
      {
        Soak.default_config with
        Soak.faults = Some (Fault.injector plan);
        ordering = Soak.Interleaved;
      }
  in
  (* Faults may eat any number of requests — including every degraded
     one — but never the loop, and never bit-identity of survivors. *)
  List.iter
    (fun m -> Printf.printf "faulted mismatch: %s\n" m)
    o.Soak.mismatches;
  Alcotest.(check (list string)) "faulted: no mismatches" [] o.Soak.mismatches;
  Alcotest.(check bool) "faulted: alive" true o.Soak.alive;
  Alcotest.(check bool) "faulted: faults landed" true (o.Soak.errors > 1)

let test_soak_pooled () =
  let o = Soak.run { Soak.default_config with Soak.pool = Some pool2 } in
  check_soak "pooled" o

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "golden" `Quick test_json_golden;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "recency" `Quick test_lru_recency;
          Alcotest.test_case "replace and oversized" `Quick
            test_lru_replace_and_oversized;
          Alcotest.test_case "alist oldest-first" `Quick
            test_lru_alist_oldest_first;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "basics" `Quick test_server_basics;
          Alcotest.test_case "degradation ladder" `Quick
            test_degradation_ladder;
          Alcotest.test_case "select op" `Quick test_select_op;
          Alcotest.test_case "batch shedding" `Quick test_batch_shedding;
          Alcotest.test_case "circuit breaker" `Quick test_circuit_breaker;
          Alcotest.test_case "ladder golden" `Quick test_ladder_golden;
          Alcotest.test_case "budget validation" `Quick test_budget_validation;
          Alcotest.test_case "sf validation" `Quick test_sf_validation;
          Alcotest.test_case "huge sf" `Quick test_huge_sf;
          Alcotest.test_case "candidates delta validation" `Quick
            test_candidates_delta_validation;
        ] );
      ( "caching",
        [
          QCheck_alcotest.to_alcotest prop_cache_state_invariance;
          Alcotest.test_case "snapshot reload" `Quick test_snapshot_reload;
          Alcotest.test_case "snapshot failure" `Quick test_snapshot_failure;
          Alcotest.test_case "pool independence" `Quick
            test_pool_independence;
        ] );
      ( "soak",
        [
          Alcotest.test_case "sequential" `Quick test_soak_sequential;
          Alcotest.test_case "interleaved" `Quick test_soak_interleaved;
          Alcotest.test_case "fault-injected" `Quick test_soak_faulted;
          Alcotest.test_case "pooled" `Quick test_soak_pooled;
        ] );
    ]
