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

(* ------------------------------------------------------------------ *)
(* The memo-of-Hashtbls System-R DP, kept verbatim (minus its metrics)
   as the reference for the prepared plan space of [Optimizer]: every
   call rebuilds the whole memo, costing each alternative with a full
   [Vec.dot] and keeping the first strict minimum per retention key. *)

open Qsens_plan

(* Per-subset memo of the cheapest plan for each (interesting order,
   output width) combination — System-R's per-interesting-order retention
   extended with width, because narrower intermediate results (e.g. from
   index-only accesses) can win later through smaller sorts and spills
   even when currently more expensive. *)
module Memo = struct
  type t = (int, (string, Node.t) Hashtbl.t) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let order_key : Node.order -> string = function
    | None -> ""
    | Some (a, c) -> a ^ "." ^ c

  (* Variants come back sorted by retention key: the enumeration order —
     and with it every cost-tie resolution downstream — must not depend
     on hash-table iteration order. *)
  let variants t mask =
    match Hashtbl.find_opt t mask with
    | None -> []
    | Some tbl ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map snd

  let insert t costs ~interesting (node : Node.t) mask =
    let tbl =
      match Hashtbl.find_opt t mask with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.add t mask tbl;
          tbl
    in
    let key =
      (if interesting then order_key node.order else "")
      ^ "#" ^ string_of_int node.Node.width
    in
    let c = Node.cost node costs in
    let better =
      match Hashtbl.find_opt tbl key with
      | Some old -> c < Node.cost old costs
      | None -> true
    in
    if better then Hashtbl.replace tbl key node
end

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let optimize_memo ?(max_bushy_side = 2) env (query : Query.t) ~costs :
    Qsens_optimizer.Optimizer.result =
  let ctx = Node.make_ctx env query in
  let aliases =
    Array.of_list (List.map (fun (r : Query.relation) -> r.alias) query.relations)
  in
  let n = Array.length aliases in
  if n = 0 then failwith "Optimizer.optimize: query has no relations";
  if n > 16 then failwith "Optimizer.optimize: too many relations";
  let bit_of alias =
    let rec find i = if aliases.(i) = alias then i else find (i + 1) in
    find 0
  in
  let full = (1 lsl n) - 1 in
  let edges =
    List.map
      (fun (j : Query.join) -> (1 lsl bit_of j.left, 1 lsl bit_of j.right, j))
      query.joins
  in
  let cross_edges s1 s2 =
    List.filter_map
      (fun (bl, br, j) ->
        if
          (bl land s1 <> 0 && br land s2 <> 0)
          || (bl land s2 <> 0 && br land s1 <> 0)
        then Some j
        else None)
      edges
  in
  let memo = Memo.create () in
  (* An order is interesting only if it is on the join column of an edge
     leading out of the subset — otherwise no future merge join can use
     it, and the variant competes on cost alone (System-R's treatment of
     interesting orders). *)
  let useful_order mask (node : Node.t) =
    match node.order with
    | None -> false
    | Some (a, c) ->
        List.exists
          (fun (bl, br, (j : Query.join)) ->
            let out b = b land mask = 0 in
            (j.left = a && j.left_col = c && out br)
            || (j.right = a && j.right_col = c && out bl))
          edges
  in
  let insert node mask =
    let node_key_order = useful_order mask node in
    Memo.insert memo costs ~interesting:node_key_order node mask
  in
  (* Base access paths. *)
  Array.iteri
    (fun i alias ->
      List.iter (fun p -> insert p (1 lsl i)) (Node.access_paths ctx alias))
    aliases;
  (* Whether a subset's induced join graph is connected, to restrict
     cartesian products to genuinely disconnected queries. *)
  let connected = Array.make (full + 1) false in
  for mask = 1 to full do
    if popcount mask = 1 then connected.(mask) <- true
    else begin
      let seed = mask land -mask in
      let reach = ref seed in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (bl, br, _) ->
            if bl land mask <> 0 && br land mask <> 0 then begin
              if bl land !reach <> 0 && br land !reach = 0 then begin
                reach := !reach lor br;
                changed := true
              end;
              if br land !reach <> 0 && bl land !reach = 0 then begin
                reach := !reach lor bl;
                changed := true
              end
            end)
          edges
      done;
      connected.(mask) <- !reach = mask
    end
  done;
  (* The key columns each side of a merge join must be sorted on. *)
  let merge_key s1 (j : Query.join) =
    if (1 lsl bit_of j.left) land s1 <> 0 then
      ((j.left, j.left_col), (j.right, j.right_col))
    else ((j.right, j.right_col), (j.left, j.left_col))
  in
  let ensure_sorted node key =
    if node.Node.order = Some key then node
    else Node.sort ctx ~key:(Some key) node
  in
  for mask = 1 to full do
    if popcount mask >= 2 then begin
      (* Composite joins over all ordered splits. *)
      let s1 = ref ((mask - 1) land mask) in
      while !s1 <> 0 do
        let s2 = mask lxor !s1 in
        (* Bushy trees are considered, but one side of a composite join is
           kept small (DB2-style heuristic): full bushy enumeration is
           cubic in the subset lattice and adds little plan diversity. *)
        let bushy_ok =
          min (popcount !s1) (popcount s2) <= max_bushy_side
        in
        let cross = if bushy_ok then cross_edges !s1 s2 else [] in
        let allow_cartesian = (not (connected.(mask))) && cross = [] in
        if cross <> [] || allow_cartesian then begin
          let lefts = Memo.variants memo !s1 in
          let rights = Memo.variants memo s2 in
          match (lefts, rights) with
          | [], _ | _, [] -> ()
          | _ ->
              (* Variants differ not only in cost and order but also in
                 output width (index-only accesses are narrower), and
                 width feeds downstream spill costs — so every variant
                 pair must be considered, not just the cheapest. *)
              List.iter
                (fun l ->
                  List.iter
                    (fun r ->
                      if cross <> [] then
                        insert (Node.hash_join ctx ~build:l ~probe:r) mask;
                      insert (Node.block_nlj ctx ~outer:l ~inner:r) mask)
                    rights)
                lefts;
              (* Merge join: pair key-sorted variants, adding an explicit
                 sort on top of every variant that lacks the order. *)
              List.iter
                (fun (j : Query.join) ->
                  let kl, kr = merge_key !s1 j in
                  let with_key key variants =
                    List.map (fun v -> ensure_sorted v key) variants
                  in
                  let lcands = with_key kl lefts
                  and rcands = with_key kr rights in
                  List.iter
                    (fun l ->
                      List.iter
                        (fun r ->
                          match Node.merge_join ctx ~left:l ~right:r j with
                          | Some node -> insert node mask
                          | None -> ())
                        rcands)
                    lcands)
                cross
        end;
        s1 := (!s1 - 1) land mask
      done;
      (* Index nested loops with a single-table inner. *)
      for i = 0 to n - 1 do
        let b = 1 lsl i in
        if mask land b <> 0 then begin
          let rest = mask lxor b in
          if rest <> 0 then begin
            let inner_alias = aliases.(i) in
            let rel = Query.relation query inner_alias in
            let indexes = Qsens_catalog.Schema.indexes_of env.Env.schema rel.table in
            let joins = cross_edges b rest in
            List.iter
              (fun outer ->
                List.iter
                  (fun j ->
                    List.iter
                      (fun idx ->
                        match Node.index_nlj ctx ~outer ~inner_alias idx j with
                        | Some node -> insert node mask
                        | None -> ())
                      indexes)
                  joins)
              (Memo.variants memo rest)
          end
        end
      done
    end
  done;
  let tops =
    List.concat_map (Node.finalize_variants ctx) (Memo.variants memo full)
  in
  match tops with
  | [] -> failwith "Optimizer.optimize: no plan found"
  | first :: rest ->
      let best =
        List.fold_left
          (fun acc node ->
            if Node.cost node costs < Node.cost acc costs then node else acc)
          first rest
      in
      {
        plan = best;
        total_cost = Node.cost best costs;
        signature = Node.signature best;
      }

(* ------------------------------------------------------------------ *)
(* The hyperplane-subset vertex scan, kept as the reference for the
   production basis walk ({!Qsens_geom.Vertex_enum.vertices}). *)

module Pool = Qsens_parallel.Pool

(* Advance [idx] to the next [k]-subset of [0 .. n-1] in lexicographic
   order, in place; false when [idx] was the last subset. *)
let advance_subset n k idx =
  let rec bump i =
    if i < 0 then false
    else if idx.(i) < n - (k - i) then begin
      idx.(i) <- idx.(i) + 1;
      for j = i + 1 to k - 1 do
        idx.(j) <- idx.(j - 1) + 1
      done;
      true
    end
    else bump (i - 1)
  in
  bump (k - 1)

let nth_subset n k rank =
  if k < 1 || k > n then invalid_arg "Qsens_oracle.nth_subset: bad k";
  if rank < 0 || rank >= Vertex_enum.count_subsets n k then
    invalid_arg "Qsens_oracle.nth_subset: rank out of range";
  let idx = Array.make k 0 in
  let r = ref rank and lo = ref 0 in
  for i = 0 to k - 1 do
    let c = ref !lo in
    let rec settle () =
      let block = Vertex_enum.count_subsets (n - !c - 1) (k - i - 1) in
      if !r >= block then begin
        r := !r - block;
        incr c;
        settle ()
      end
    in
    settle ();
    idx.(i) <- !c;
    lo := !c + 1
  done;
  idx

(* The production dedup grid, repeated so the reference stands alone:
   cells of side [eps], and a point is a duplicate when some kept point
   in the 3^n neighbouring cells lies within [eps] (infinity norm). *)
module Grid = struct
  type t = { eps : float; dim : int; cells : (int list, Vec.t list) Hashtbl.t }

  let create ~eps ~dim = { eps; dim; cells = Hashtbl.create 256 }

  let key g x =
    Array.to_list (Array.map (fun v -> int_of_float (Float.floor (v /. g.eps))) x)

  let mem g x =
    let base = Array.of_list (key g x) in
    let rec probe d acc =
      if d = g.dim then
        match Hashtbl.find_opt g.cells (List.rev acc) with
        | None -> false
        | Some ys -> List.exists (fun y -> Vec.norm_inf (Vec.sub x y) <= g.eps) ys
      else
        probe (d + 1) ((base.(d) - 1) :: acc)
        || probe (d + 1) (base.(d) :: acc)
        || probe (d + 1) ((base.(d) + 1) :: acc)
    in
    probe 0 []

  let add g x =
    let k = key g x in
    let prev = Option.value ~default:[] (Hashtbl.find_opt g.cells k) in
    Hashtbl.replace g.cells k (x :: prev)
end

let vertices ?(eps = 1e-7) ?(max_subsets = 200_000) ?pool hs =
  match hs with
  | [] -> []
  | h0 :: _ ->
      let n = Halfspace.dim h0 in
      let arr = Array.of_list hs in
      let count = Array.length arr in
      let total = Vertex_enum.count_subsets count n in
      if total > max_subsets then raise Vertex_enum.Too_large;
      if total = 0 then []
      else begin
        let satisfies_all x =
          Array.for_all
            (fun (h : Halfspace.t) -> Vec.dot h.normal x -. h.offset <= eps)
            arr
        in
        let solve idx =
          let m = Mat.init n n (fun i j -> arr.(idx.(i)).Halfspace.normal.(j)) in
          let b = Vec.init n (fun i -> arr.(idx.(i)).Halfspace.offset) in
          match Mat.solve m b with
          | exception Mat.Singular -> None
          | x -> if satisfies_all x then Some x else None
        in
        (* Candidate vertices of [len] consecutive subsets from rank
           [start], in rank order. *)
        let candidates ~start ~len =
          let acc = ref [] in
          if len > 0 then begin
            let idx = nth_subset count n start in
            let remaining = ref len and more = ref true in
            while !remaining > 0 && !more do
              Option.iter (fun x -> acc := x :: !acc) (solve idx);
              decr remaining;
              if !remaining > 0 then more := advance_subset count n idx
            done
          end;
          List.rev !acc
        in
        let streams =
          match pool with
          | Some p when Pool.domains p > 1 && total > 1 ->
              let chunks = Pool.auto_chunks ~domains:(Pool.domains p) ~n:total in
              let parts = Array.make chunks [] in
              Pool.run p
                (Array.init chunks (fun c ->
                     let lo, hi = Pool.chunk_bounds ~n:total ~chunks c in
                     (* qsens-lint: disable=P001 — one chunk slot per task *)
                     fun () -> parts.(c) <- candidates ~start:lo ~len:(hi - lo)));
              Array.to_list parts
          | _ -> [ candidates ~start:0 ~len:total ]
        in
        let grid = Grid.create ~eps ~dim:n in
        List.concat streams
        |> List.filter (fun x ->
               (not (Grid.mem grid x))
               && begin
                    Grid.add grid x;
                    true
                  end)
      end
