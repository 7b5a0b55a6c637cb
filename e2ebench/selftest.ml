(* Self-tests of the end-to-end benchmark: its metric catalogue matches
   BENCHMARK.json and the layer map, and its correctness gates catch
   corrupted outputs.

     selftest.exe BENCHMARK.json layers.json *)

module Json = Qsens_server.Json
module Check = Qsens_e2e.Check
module Spec = Qsens_e2e.Spec

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let list_field k j = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list)
let str_field k j = Option.bind (Json.member k j) Json.to_str

let catalogue_matches bench =
  let declared k =
    List.map (fun m -> (str_field "name" m, str_field "unit" m)) (list_field k bench)
  in
  let ours l = List.map (fun (m : Spec.metric) -> (Some m.name, Some m.unit)) l in
  expect "end_to_end names and units equal BENCHMARK.json"
    (declared "end_to_end" = ours Spec.end_to_end);
  expect "per_layer names and units equal BENCHMARK.json"
    (declared "per_layer" = ours Spec.per_layer);
  expect "workload names equal BENCHMARK.json"
    (List.map (str_field "name") (list_field "workloads" bench)
    = List.map Option.some Spec.workloads)

(* Every per-layer metric belongs to a layer, and every metric the layer
   map names exists. *)
let layer_map_matches layers =
  let names l = List.map (fun (m : Spec.metric) -> m.name) l in
  let layer_list = list_field "layers" layers in
  let owned =
    List.concat_map
      (fun l -> List.filter_map Json.to_str (list_field "metrics" l))
      layer_list
  in
  let referenced =
    List.concat_map
      (fun l ->
        List.filter_map (str_field "metric") (list_field "moves" l @ list_field "flat" l))
      layer_list
  in
  let sorted = List.sort_uniq String.compare in
  expect "layers.json assigns exactly the per-layer metrics"
    (sorted owned = sorted (names Spec.per_layer));
  expect "layers.json names only catalogue metrics"
    (List.for_all
       (fun n -> List.mem n (names Spec.end_to_end) || List.mem n (names Spec.per_layer))
       referenced)

let emitted_names ~trace =
  let values = List.map (fun (m : Spec.metric) -> (m.name, 1.)) (Spec.metrics_for ~trace) in
  let result = Spec.result_json ~trace ~attempted:1 ~failed:0 values in
  match Json.member "metrics" result with
  | Some (Json.Obj fields) -> List.map fst fields
  | _ -> []

let result_lines_match () =
  List.iter
    (fun trace ->
      expect
        (Printf.sprintf "result line with --trace %d carries exactly its catalogue"
           (Bool.to_int trace))
        (emitted_names ~trace
        = List.map (fun (m : Spec.metric) -> m.name) (Spec.metrics_for ~trace)))
    [ false; true ];
  expect "a missing metric value is refused"
    (match Spec.result_json ~trace:false ~attempted:1 ~failed:0 [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let grid = [ 1.; 10.; 100.; 1000. ]
let good = List.combine grid [ 1.; 3.5; 80.; 80. ]

let curve_gate () =
  expect "a valid curve passes" (Check.curve good = []);
  expect "gtc = delta^2 exactly passes" (Check.curve [ (10., 100.) ] = []);
  expect "gtc > delta^2 is flagged" (Check.curve (List.combine grid [ 1.; 3.5; 10001.; 10001. ]) <> []);
  expect "gtc < 1 is flagged" (Check.curve [ (1., 0.999) ] <> []);
  expect "NaN gtc is flagged" (Check.curve [ (10., Float.nan) ] <> []);
  let decreasing = List.combine grid [ 1.; 3.5; 80.; 79.999 ] in
  expect "a decreasing curve is flagged" (Check.curve decreasing <> []);
  expect "a decreasing sampled estimate is allowed" (Check.curve ~monotone:false decreasing = []);
  let from_response s =
    Option.bind (Result.to_option (Json.of_string s)) Check.response_points
  in
  expect "curves are read from worst_case responses"
    (from_response {|{"ok":true,"points":[{"delta":1,"gtc":1},{"delta":10,"gtc":101}]}|}
    = Some [ (1., 1.); (10., 101.) ])

let replay_gate () =
  let r = Check.Replay.create () in
  let req = {|{"op":"worst_case","query":"Q3"}|} in
  expect "a first answer is recorded" (Check.Replay.record r ~request:req ~response:"A" = None);
  expect "an identical repeat passes" (Check.Replay.record r ~request:req ~response:"A" = None);
  expect "a non-identical repeat is flagged"
    (Option.is_some (Check.Replay.record r ~request:req ~response:"A "))

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let parsed what path check =
    match Json.of_string (read_file path) with
    | Ok j -> check j
    | Error m -> expect (what ^ " parses: " ^ m) false
  in
  parsed "BENCHMARK.json" (arg 1 "BENCHMARK.json") catalogue_matches;
  parsed "layers.json" (arg 2 "layers.json") layer_map_matches;
  result_lines_match ();
  curve_gate ();
  replay_gate ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
