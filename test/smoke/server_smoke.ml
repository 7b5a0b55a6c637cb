(* CI smoke for the sensitivity service: start `qsens serve` on a Unix
   socket, drive a batch and an over-budget request through
   `qsens client --check`, and assert the robustness contract from the
   outside — real processes, real socket, no shared state.

   The client's --check already enforces the hard parts (non-degraded
   worst_case and select responses bit-identical to a fresh computation
   — the same library paths `qsens worst-case` and `qsens select` print
   — and a path annotation on degraded ones) by exiting nonzero; this
   driver additionally asserts the degraded worst_case response reached
   the Monte-Carlo floor, a tight-budget select landed on
   branch-and-bound, and the oversized batch shed with typed errors.
   Before the checked client runs, a rude client connects, sends a
   request and disconnects without reading the reply: the EPIPE on the
   server's answer must not kill the accept loop. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let () =
  let cli = Sys.argv.(1) in
  let dir = Filename.temp_file "qsens-server-smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "qsens.sock" in
  let server_log = Filename.concat dir "server.log" in
  let client_out = Filename.concat dir "client.out" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let server_fd =
    Unix.openfile server_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let server_pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--socket"; sock; "--mc-samples"; "64";
        "--queue-limit"; "2";
      |]
      devnull server_fd Unix.stderr
  in
  Unix.close server_fd;
  let rec await n =
    if Sys.file_exists sock then ()
    else if n = 0 then failwith "server socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 200;
  (* Early disconnect: fire a full-sized request and slam the door
     before the (multi-kilobyte) response can be written.  Connections
     are served sequentially, so the next client is only answered if the
     accept loop survived the broken pipe. *)
  let rude = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect rude (Unix.ADDR_UNIX sock);
  let rude_line =
    "{\"id\":99,\"op\":\"worst_case\",\"query\":\"Q6\",\"layout\":\"same\",\
     \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\
     \"budget\":1000000000}\n"
  in
  ignore
    (Unix.write_substring rude rude_line 0 (String.length rude_line) : int);
  Unix.close rude;
  let requests =
    [
      (* Exact tier: --check recomputes this from scratch and requires
         bit-identity. *)
      "{\"id\":1,\"op\":\"worst_case\",\"query\":\"Q6\",\"layout\":\"same\",\
       \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\
       \"budget\":1000000000}";
      (* Over budget: must degrade gracefully, with the path annotated. *)
      "{\"id\":2,\"op\":\"worst_case\",\"query\":\"Q6\",\"layout\":\"same\",\
       \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\"budget\":4}";
      (* Oversized batch: two past the queue limit must shed, typed. *)
      "{\"id\":3,\"op\":\"batch\",\"requests\":[{\"id\":30,\"op\":\"ping\"},\
       {\"id\":31,\"op\":\"ping\"},{\"id\":32,\"op\":\"ping\"},{\"id\":33,\
       \"op\":\"ping\"}]}";
      (* Selection over the same cell: --check recomputes the choices
         from scratch and requires bit-identity. *)
      "{\"id\":4,\"op\":\"select\",\"query\":\"Q6\",\"layout\":\"same\",\
       \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\
       \"budget\":1000000000}";
      (* A selection whose budget trips the exhaustive tables and lands
         on branch-and-bound: the shared ladder end to end. *)
      "{\"id\":5,\"op\":\"select\",\"query\":\"Q6\",\"layout\":\"same\",\
       \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\"budget\":64}";
      "{\"id\":6,\"op\":\"shutdown\"}";
    ]
  in
  let client_fd =
    Unix.openfile client_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let args =
    Array.of_list
      ([ cli; "client"; "--socket"; sock; "--check" ]
      @ List.concat_map (fun r -> [ "-r"; r ]) requests)
  in
  let client_pid = Unix.create_process cli args devnull client_fd Unix.stderr in
  Unix.close client_fd;
  Unix.close devnull;
  let _, client_status = Unix.waitpid [] client_pid in
  let _, server_status = Unix.waitpid [] server_pid in
  let out = read_file client_out in
  print_string out;
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  expect (client_status = Unix.WEXITED 0)
    "client --check exited nonzero (divergence or missing annotation)";
  expect (server_status = Unix.WEXITED 0) "server exited nonzero";
  expect
    (contains ~needle:"\"path\":\"exhaustive sweep\"" out)
    "no exact-tier response";
  expect
    (contains ~needle:"\"degraded\":true" out
    && contains ~needle:"\"path\":\"monte-carlo estimate\"" out)
    "over-budget request did not degrade to an annotated estimate";
  expect
    (contains ~needle:"\"kind\":\"shed\"" out)
    "oversized batch did not shed";
  expect
    (contains ~needle:"\"op\":\"select\"" out
    && contains ~needle:"\"choices\":" out)
    "select op not served after the early disconnect";
  let bnb_select =
    List.find_opt
      (contains ~needle:"{\"id\":5,")
      (String.split_on_char '\n' out)
  in
  expect
    (match bnb_select with
    | Some line ->
        contains ~needle:"\"op\":\"select\"" line
        && contains ~needle:"\"path\":\"branch-and-bound\"" line
        && contains ~needle:"\"degraded\":true" line
    | None -> false)
    "tight-budget select did not degrade to branch-and-bound";
  expect
    (contains ~needle:"\"op\":\"shutdown\"" out)
    "shutdown not acknowledged";
  match !failures with
  | [] -> print_endline "server-smoke: all checks passed"
  | msgs ->
      List.iter (fun m -> print_endline ("server-smoke FAILED: " ^ m)) msgs;
      print_endline ("server log: " ^ read_file server_log);
      exit 1
