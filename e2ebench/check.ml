(* The correctness gates every benchmark run applies to the program's
   outputs.  Each check returns the list of violations it found; an empty
   list means the output passed. *)

(* Theorem 1: the worst-case global relative cost of the initial plan at
   error bound delta lies in [1, delta^2].  The slack absorbs the
   rounding of the curve engines' two-rounding vertex values. *)
let theorem1_slack = 1e-9

(* [curve points] checks a worst-case curve given as (delta, gtc) pairs
   in ascending delta order: every point obeys Theorem 1 and, when
   [monotone] (exact evaluation paths only — a sampled estimate need not
   be), gtc never decreases as the box grows. *)
let curve ?(monotone = true) points =
  let bound_errors =
    List.filter_map
      (fun (delta, gtc) ->
        if Float.is_nan gtc then Some (Printf.sprintf "gtc is NaN at delta %g" delta)
        else if gtc < 1. then
          Some (Printf.sprintf "gtc %.17g < 1 at delta %g" gtc delta)
        else if gtc > delta *. delta *. (1. +. theorem1_slack) then
          Some (Printf.sprintf "gtc %.17g > delta^2 at delta %g" gtc delta)
        else None)
      points
  in
  let rec order_errors = function
    | (d0, g0) :: ((d1, g1) :: _ as rest) ->
        let here =
          if d1 < d0 then [ Printf.sprintf "deltas out of order at %g" d1 ]
          else if monotone && g1 < g0 then
            [ Printf.sprintf "gtc decreases from %.17g at delta %g to %.17g at delta %g"
                g0 d0 g1 d1 ]
          else []
        in
        here @ order_errors rest
    | [ _ ] | [] -> []
  in
  bound_errors @ order_errors points

(* Repeated requests must be answered byte for byte as the first time,
   whatever happened to the caches in between (hits, evictions,
   [invalidate]).  [Replay] remembers each distinct request's first
   answer. *)
module Replay = struct
  type t = (string, string) Hashtbl.t

  let create () : t = Hashtbl.create 64

  (* [record t ~request ~response] is [None] for a first answer or an
     identical repeat, and a description of the mismatch otherwise. *)
  let record t ~request ~response =
    match Hashtbl.find_opt t request with
    | None ->
        Hashtbl.add t request response;
        None
    | Some first ->
        if String.equal first response then None
        else
          Some
            (Printf.sprintf "repeat of %s answered %d bytes differing from the first %d"
               request (String.length response) (String.length first))
end

(* The (delta, gtc) pairs of a worst_case response's "points" field, or
   [None] if the response does not carry one. *)
let response_points resp =
  let open Qsens_server.Json in
  Option.bind (member "points" resp) to_list
  |> Option.map
       (List.filter_map (fun p ->
            match
              (Option.bind (member "delta" p) to_float, Option.bind (member "gtc" p) to_float)
            with
            | Some d, Some g -> Some (d, g)
            | _ -> None))
