open Qsens_linalg
open Qsens_geom
open Qsens_core

let ones_center ~initial = Vec.make (Vec.dim initial) 1.

let curve_naive ?(deltas = Worst_case.default_deltas) ~plans ~initial () =
  let center = ones_center ~initial in
  List.map
    (fun delta ->
      let sweep = Sweep.build ~prune:false ~plans ~initial ~center () in
      Worst_case.point_of_eval ~center ~delta (Sweep.eval sweep ~delta))
    deltas

let curve_pruned ?(deltas = Worst_case.default_deltas) ~plans ~initial () =
  let center = ones_center ~initial in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  let scratch = Sweep.Bnb.Scratch.create () in
  List.map
    (fun delta ->
      Worst_case.point_of_eval ~center ~delta
        (Sweep.Bnb.eval ~scratch bnb ~delta))
    deltas

(* Per plan, every vertex with strict improvement (lowest pattern wins
   ties, NaN skipped); the per-plan maxima then reduce with strict
   improvement in plan order. *)
let worst_case_gtc ~plans ~a box =
  let nv = 1 lsl Box.dim box in
  let verts = Array.init nv (Box.vertex box) in
  let best = ref neg_infinity and witness = ref None and degen = ref false in
  Array.iter
    (fun p ->
      let pbest = ref neg_infinity and pk = ref (-1) in
      Array.iteri
        (fun k v ->
          let r = Vec.dot a v /. Vec.dot p v in
          if r > !pbest then begin
            pbest := r;
            pk := k
          end)
        verts;
      if !pk < 0 then degen := true
      else if !pbest > !best then begin
        best := !pbest;
        witness := Some verts.(!pk)
      end)
    plans;
  match !witness with
  | Some w -> (!best, w)
  | None -> ((if !degen then nan else !best), Box.center box)

let curve_fractional_cells ?(deltas = Worst_case.default_deltas) ~plans
    ~initial () =
  let center = ones_center ~initial in
  List.map
    (fun delta ->
      let box = Box.around center ~delta in
      let best = ref neg_infinity and witness = ref None and degen = ref false in
      Array.iter
        (fun p ->
          let r, corner = Fractional.max_ratio ~num:initial ~den:p box in
          if Float.is_nan r then degen := true
          else if r > !best then begin
            best := r;
            witness := Some corner
          end)
        plans;
      match !witness with
      | Some w -> { Worst_case.delta; gtc = !best; witness = w }
      | None ->
          {
            Worst_case.delta;
            gtc = (if !degen then nan else !best);
            witness = Box.center box;
          })
    deltas
