open Qsens_plan
open Qsens_faults
module Obs = Qsens_obs.Obs

let m_explains = Obs.counter ~help:"narrow EXPLAIN calls" "narrow.explains"
let m_recosts = Obs.counter ~help:"narrow recost calls" "narrow.recosts"

let m_repins =
  Obs.counter ~help:"plan-cache repins after eviction" "narrow.repins"

type t = {
  env : Env.t;
  prepared : Optimizer.prepared;
  seen : (string, Node.t) Hashtbl.t;
  (* The costs under which each signature was first produced.  Models the
     client keeping its original EXPLAIN handle: it survives plan-cache
     eviction (Cache_loss faults) and lets [repin] re-derive the plan by
     re-optimizing at those costs. *)
  origin : (string, Qsens_linalg.Vec.t) Hashtbl.t;
  faults : Fault.injector option;
  mutable calls : int;
}

let explain_site = "narrow.explain"
let recost_site = "narrow.recost"

let create ?faults env query =
  {
    env;
    prepared = Optimizer.prepare env query;
    seen = Hashtbl.create 16;
    origin = Hashtbl.create 16;
    faults;
    calls = 0;
  }

let dim t = Qsens_cost.Space.dim t.env.Env.space
let faults t = t.faults

let explain t ~costs =
  t.calls <- t.calls + 1;
  Obs.add m_explains 1;
  Obs.with_span "narrow.explain" @@ fun () ->
  let r = Optimizer.best t.prepared ~costs in
  match Fault.apply_opt t.faults ~site:explain_site r.total_cost with
  | Error `Failed ->
      (* a failed call teaches the client nothing: no caching *)
      Error (Fault.Probe_failed { site = explain_site; attempts = 1 })
  | Error `Timed_out ->
      Error (Fault.Probe_timeout { site = explain_site; attempts = 1 })
  | Ok total ->
      if not (Hashtbl.mem t.seen r.signature) then
        Hashtbl.add t.seen r.signature r.plan;
      if not (Hashtbl.mem t.origin r.signature) then
        Hashtbl.add t.origin r.signature (Qsens_linalg.Vec.copy costs);
      Ok (r.signature, total)

let recost t ~signature ~costs =
  Obs.add m_recosts 1;
  if Fault.evicts_opt t.faults ~site:recost_site then
    Hashtbl.remove t.seen signature;
  match Hashtbl.find_opt t.seen signature with
  | None -> Error (Fault.Unknown_signature signature)
  | Some plan -> (
      match Fault.apply_opt t.faults ~site:recost_site (Node.cost plan costs) with
      | Ok total -> Ok total
      | Error `Failed ->
          Error (Fault.Probe_failed { site = recost_site; attempts = 1 })
      | Error `Timed_out ->
          Error (Fault.Probe_timeout { site = recost_site; attempts = 1 }))

let repin t ~signature =
  if Hashtbl.mem t.seen signature then Ok ()
  else
    match Hashtbl.find_opt t.origin signature with
    | None -> Error (Fault.Unknown_signature signature)
    | Some costs -> (
        Obs.add m_repins 1;
        (* Re-EXPLAIN at the costs that produced the plan; the optimizer
           is deterministic, so the same signature lands back in the
           cache.  Counts as an optimizer call and is itself subject to
           injected faults. *)
        match explain t ~costs with
        | Ok _ -> Ok ()
        | Error e -> Error e)

let calls t = t.calls
