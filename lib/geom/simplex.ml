open Qsens_linalg

type result = Optimal of Vec.t * float | Unbounded | Infeasible

let eps = 1e-9

(* Tableau layout: [m] constraint rows, one objective row (index [m]).
   Columns: [total] variable columns followed by the right-hand side.
   [basis.(i)] is the variable basic in row [i]. *)
type tableau = {
  t : float array array;
  basis : int array;
  m : int; (* constraint rows *)
  total : int; (* variable columns *)
}

let pivot tb ~row ~col =
  let { t; basis; m; total } = tb in
  let p = t.(row).(col) in
  for j = 0 to total do
    t.(row).(j) <- t.(row).(j) /. p
  done;
  for i = 0 to m do
    if i <> row && Float.abs t.(i).(col) > 0. then begin
      let f = t.(i).(col) in
      for j = 0 to total do
        t.(i).(j) <- t.(i).(j) -. (f *. t.(row).(j))
      done
    end
  done;
  basis.(row) <- col

(* Bland's rule: entering variable is the lowest-index column with a
   positive reduced profit; leaving row is the minimum-ratio row with the
   lowest-index basic variable.  Guarantees termination. *)
let rec iterate ?(allowed = fun _ -> true) tb =
  let { t; m; total; _ } = tb in
  let obj = t.(m) in
  let entering = ref (-1) in
  (try
     for j = 0 to total - 1 do
       if allowed j && obj.(j) > eps then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let col = !entering in
    let best_row = ref (-1) and best_ratio = ref infinity in
    for i = 0 to m - 1 do
      if t.(i).(col) > eps then begin
        let ratio = t.(i).(total) /. t.(i).(col) in
        if
          ratio < !best_ratio -. eps
          || (ratio < !best_ratio +. eps
             && (!best_row < 0 || tb.basis.(i) < tb.basis.(!best_row)))
        then begin
          best_row := i;
          best_ratio := ratio
        end
      end
    done;
    if !best_row < 0 then `Unbounded
    else begin
      pivot tb ~row:!best_row ~col;
      iterate ~allowed tb
    end
  end

let maximize ~obj ~constraints =
  let n = Vec.dim obj in
  let m = List.length constraints in
  let rows = Array.of_list constraints in
  Array.iter
    (fun (a, _) ->
      if Vec.dim a <> n then invalid_arg "Simplex.maximize: dimension mismatch")
    rows;
  (* Rows with negative rhs are negated so that rhs >= 0; such rows get an
     artificial variable because their slack enters with coefficient -1. *)
  let needs_art = Array.map (fun (_, b) -> b < 0.) rows in
  let n_art = Array.fold_left (fun k f -> if f then k + 1 else k) 0 needs_art in
  let total = n + m + n_art in
  let t = Array.make_matrix (m + 1) (total + 1) 0. in
  let basis = Array.make m 0 in
  let art_index = ref (n + m) in
  Array.iteri
    (fun i (a, b) ->
      let s = if needs_art.(i) then -1. else 1. in
      for j = 0 to n - 1 do
        t.(i).(j) <- s *. a.(j)
      done;
      t.(i).(n + i) <- s;
      t.(i).(total) <- s *. b;
      if needs_art.(i) then begin
        t.(i).(!art_index) <- 1.;
        basis.(i) <- !art_index;
        incr art_index
      end
      else basis.(i) <- n + i)
    rows;
  let tb = { t; basis; m; total } in
  (* Phase one: maximize -(sum of artificials). *)
  if n_art > 0 then begin
    for j = n + m to total - 1 do
      t.(m).(j) <- -1.
    done;
    (* Price out the artificial basic variables. *)
    for i = 0 to m - 1 do
      if basis.(i) >= n + m then
        for j = 0 to total do
          t.(m).(j) <- t.(m).(j) +. t.(i).(j)
        done
    done;
    match iterate tb with
    | `Unbounded -> assert false (* phase-one objective is bounded by 0 *)
    | `Optimal ->
        (* The objective row's rhs holds the negated objective value, so a
           positive residual means some artificial variable is stuck > 0. *)
        if t.(m).(total) > 1e-7 then raise Exit
        else begin
          (* Drive any artificial still basic (at zero) out of the basis. *)
          for i = 0 to m - 1 do
            if basis.(i) >= n + m then begin
              let found = ref false in
              for j = 0 to (n + m) - 1 do
                if (not !found) && Float.abs t.(i).(j) > eps then begin
                  pivot tb ~row:i ~col:j;
                  found := true
                end
              done
            end
          done;
          (* Reset objective row for phase two. *)
          Array.fill t.(m) 0 (total + 1) 0.;
          for j = 0 to n - 1 do
            t.(m).(j) <- obj.(j)
          done;
          for i = 0 to m - 1 do
            if basis.(i) < n + m && Float.abs t.(m).(basis.(i)) > 0. then begin
              let f = t.(m).(basis.(i)) in
              for j = 0 to total do
                t.(m).(j) <- t.(m).(j) -. (f *. t.(i).(j))
              done
            end
          done
        end
  end
  else
    for j = 0 to n - 1 do
      t.(m).(j) <- obj.(j)
    done;
  let forbid_artificials j = j < n + m in
  match iterate ~allowed:forbid_artificials tb with
  | `Unbounded -> Unbounded
  | `Optimal ->
      let x = Vec.zero n in
      for i = 0 to m - 1 do
        if basis.(i) < n then x.(basis.(i)) <- t.(i).(total)
      done;
      Optimal (x, Vec.dot obj x)
  | exception Exit -> Infeasible

let maximize ~obj ~constraints =
  try maximize ~obj ~constraints with Exit -> Infeasible

let feasible ~constraints ~dim =
  match maximize ~obj:(Vec.zero dim) ~constraints with
  | Optimal (x, _) -> Some x
  | Unbounded -> assert false (* zero objective is never unbounded *)
  | Infeasible -> None

let feasible_in_box box hs =
  let n = Box.dim box in
  let lo = box.Box.lo in
  (* Substitute x = lo + y with y >= 0 so that the standard-form solver
     applies even when box bounds are not at the origin. *)
  let shifted (h : Halfspace.t) =
    (h.normal, h.offset -. Vec.dot h.normal lo)
  in
  let bounds =
    List.init n (fun i ->
        (Vec.basis n i, box.Box.hi.(i) -. lo.(i)))
  in
  let constraints = bounds @ List.map shifted hs in
  match feasible ~constraints ~dim:n with
  | None -> None
  | Some y -> Some (Vec.add lo y)

(* Phase one on the inequality form, refactorizing at every pivot.  A
   basis is [n] row indices whose rows are tight; its vertex solves them
   from scratch each step (no tableau, so no accumulated drift — rows
   that differ by 1e-10 stay distinguishable).  The objective is the
   total violation; each step leaves the lowest-index basis row whose
   edge reduces it and enters the first row the edge meets, lowest index
   on ties (Bland's rule, which rules out cycling).  An entering row
   whose exchange {!Mat.inverse} finds singular, or that returns to a
   basis already left, is passed over for the next row the edge meets. *)
type phase_one = Vertex of int array | Empty | Stalled

let feasible_basis ~rel rows start =
  let count = Array.length rows and n = Array.length start in
  let limit = 100 * (count + 1) * (n + 1) in
  let in_basis = Array.make count false in
  (* The total violation never rises along the path in exact arithmetic,
     so a pivot back to a basis already left can only come from a slope
     at rounding level: refusing it rules out cycling. *)
  let seen : (int array, unit) Hashtbl.t = Hashtbl.create 64 in
  let invert basis =
    match Mat.inverse (Mat.init n n (fun i j -> (fst rows.(basis.(i))).(j))) with
    | exception Mat.Singular -> None
    | inv -> Some (basis, inv)
  in
  (* The pivot out of [basis] that lowers the total violation at [x],
     with the inverse of the new basis, or [None] at a minimum. *)
  let pivot basis inv x =
    let res = Array.map (fun (a, b) -> Vec.dot a x -. b) rows in
    (* Rounding slack per row: [rel] times the magnitude of its terms. *)
    let noise r =
      let acc = ref 1. in
      Array.iteri (fun i a -> acc := !acc +. Float.abs (a *. x.(i))) (fst rows.(r));
      rel *. !acc
    in
    let violated r = (not in_basis.(r)) && res.(r) > noise r in
    (* Leaving rows in ascending index order: [basis] is sorted. *)
    let rec leave p =
      if p = n then None
      else begin
        let d = Vec.init n (fun i -> -.Mat.get inv i p) in
        let rate = Array.map (fun (a, _) -> Vec.dot a d) rows in
        (* The slope of the total violation along the edge, and the
           rounding it carries: a slope inside that is no descent. *)
        let slope = ref 0. and slop = ref 0. in
        Array.iteri
          (fun r a ->
            if violated r then begin
              slope := !slope +. a;
              Array.iteri
                (fun i c -> slop := !slop +. Float.abs (c *. d.(i)))
                (fst rows.(r))
            end)
          rate;
        (* Breakpoints: a satisfied row becoming violated, or a violated
           one becoming satisfied.  A row parallel to the edge up to
           rounding (a duplicate of a basis row) cannot enter: the basis
           would be singular. *)
        let parallel = 1e-12 *. Vec.norm_inf d in
        let entering = ref [] in
        if !slope < -1e-15 *. !slop then
          for r = 0 to count - 1 do
            let a = rate.(r) in
            if (not in_basis.(r)) && Float.abs a > parallel then begin
              let t =
                if violated r then if a < 0. then res.(r) /. -.a else infinity
                else if a > 0. then Float.max 0. (-.res.(r) /. a)
                else infinity
              in
              if t < infinity then entering := (t, r) :: !entering
            end
          done;
        let first_met (t1, r1) (t2, r2) =
          match Float.compare t1 t2 with 0 -> Int.compare r1 r2 | c -> c
        in
        let exchange (_, r) =
          let nb = Array.copy basis in
          nb.(p) <- r;
          Array.sort Int.compare nb;
          if Hashtbl.mem seen nb then None else invert nb
        in
        match List.find_map exchange (List.sort first_met !entering) with
        | None -> leave (p + 1)
        | next -> next
      end
    in
    if Array.exists Fun.id (Array.init count violated) then `Pivot (leave 0)
    else `Feasible
  in
  let rec step (basis, inv) iter =
    if iter > limit then Stalled
    else begin
      Hashtbl.replace seen basis ();
      let x = Mat.mul_vec inv (Vec.init n (fun i -> snd rows.(basis.(i)))) in
      Array.iter (fun r -> in_basis.(r) <- true) basis;
      let next = pivot basis inv x in
      Array.iter (fun r -> in_basis.(r) <- false) basis;
      match next with
      | `Feasible -> Vertex basis
      | `Pivot None -> Empty
      | `Pivot (Some b) -> step b (iter + 1)
    end
  in
  match invert (Array.copy start) with None -> Stalled | Some b -> step b 0
