open Qsens_plan
module Obs = Qsens_obs.Obs

let m_calls = Obs.counter ~help:"optimizer invocations" "optimizer.calls"

let m_memo_inserts =
  Obs.counter
    ~help:"plan alternatives in the prepared space, per probe (the memo DP's insertions)"
    "optimizer.memo_inserts"

let m_costed =
  Obs.counter
    ~help:"alternatives costed: the class-minimum pass plus near-tie replays"
    "optimizer.costed"

let m_prepares =
  Obs.counter ~help:"plan spaces enumerated" "optimizer.prepares"

let m_rechecks =
  Obs.counter ~help:"near-tie slots settled by exact re-costing"
    "optimizer.rechecks"

type result = { plan : Node.t; total_cost : float; signature : string }

let cost_of_plan = Node.cost

let candidate_access_paths env query alias =
  Node.access_paths (Node.make_ctx env query) alias

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* ------------------------------------------------------------------ *)
(* The prepared plan space.

   A slot is System-R's memo entry: a subset of relations (a bit mask)
   and a retention key — the output order when some merge join above can
   still use it, and the output width.  Slot ids are contiguous per mask,
   masks ascending, slots of a mask in retention-key order (the order the
   memo enumerated them in).  None of this depends on the cost vector:
   cardinality is a per-mask constant, width is part of the key, an order
   that is not interesting at a subset is not interesting at any
   superset, and finalization never reads the order.  Neither does an
   operator's local usage (Node.local_usage), which reads only child
   properties.  So every alternative of a slot costs, under any [C],
   [local . C + sum of k * (child slot cost)], with [k] the block
   nested-loop join's rescan count on its inner child and 1 otherwise.

   Alternatives are not stored one by one: a composite mask's
   alternatives are the (left slot, right slot) pairs of each of its
   splits, times the join methods, plus index nested loops per single
   inner relation.  Their target slot and local usage depend on the pair
   only through the two widths (and, for the target, the left order), so
   each split keeps one small cell per pair of width classes.

   A probe does not cost every pair.  Within a cell an alternative's cost
   is monotone in each input's cost, so a slot's minimum and runner-up
   come from the two cheapest inputs of each width class; a near tie
   replays only the inner class that lands in the rechecked slot. *)

(* Alternative kinds: the low three bits of a winner's [op] code; the
   bits above hold the access path, merge edge, index-NLJ combination or
   finalization variant. *)
let k_access = 0
let k_hash = 1
let k_bnlj = 2
let k_merge = 3
let k_inlj = 4
let k_final = 5

(* Index nested loops into one inner relation at one mask. *)
type inlj = {
  rest : int;  (** the outer subset *)
  inner_alias : string;
  combos : (Query.join * Qsens_catalog.Index.t) array;
  combo_loc : int array;  (** local usage id per combination *)
  index_only : bool array;  (** per combination *)
  inlj_wsum : int array;
      (** [(outer width class) * ncombos + combo] -> width class at the mask *)
}

(* Per-probe working state, reused across probes of one space. *)
type scratch = {
  cost : float array;  (** approximate cost of each slot's winner; last: final *)
  second : float array;  (** second-smallest alternative cost seen *)
  win_g : int array;  (** winner: split, index-NLJ group or alias *)
  win_i : int array;  (** winner: child slots *)
  win_op : int array;  (** winner: kind and sub-index *)
  lcost : float array;  (** [local . C] per local usage *)
  mutable unsafe : bool;  (** [C] has a negative or non-finite entry *)
  (* Exact usage of slot winners, filled on demand: row [s] is current
     when [stamp.(s) = probe]; rows are allocated on first use. *)
  exact : Qsens_linalg.Vec.t array;
  stamp : int array;
  mutable probe : int;
  (* Exact settlement of one near-tie slot: the window bound, the best
     exact cost so far and its approximate cost; its usage is in [keep],
     the candidate's goes to [cand]; [sl] and [sr] hold sorted inputs. *)
  settle_f : float array;
  mutable found : bool;
  mutable r_g : int;
  mutable r_i : int;
  mutable r_op : int;
  mutable cand : Qsens_linalg.Vec.t;
  mutable keep : Qsens_linalg.Vec.t;
  sl : Qsens_linalg.Vec.t;
  sr : Qsens_linalg.Vec.t;
  (* The two cheapest slots of each width class of a settled mask, ties
     to the first (-1: the class has one slot); and the same for the
     costs sorted on a merge key, at [class * nkeys + key], filled on
     first use in a probe ([adj_stamp] = [probe]). *)
  min1 : int array;
  min2 : int array;
  adj1 : int array;
  adj2 : int array;
  adj_stamp : int array;
  split_lo : float array;
      (** per split: its cheapest alternative, whatever slot it lands in *)
  mutable costed : int;  (** alternatives costed in the current mask *)
}

type space = {
  ctx : Node.ctx;
  dim : int;
  full : int;
  nslots : int;
  alternatives : int;  (** per probe, finalization excluded *)
  (* Sparse local usages: entries [loc_start.(u)] to [loc_start.(u+1) - 1].
     The large per-local, per-split and per-cell tables are kept in the
     chunks they were built in; read them with [cget]. *)
  loc_start : int array array;
  loc_idx : Bytes.t;  (** resource index, one byte each *)
  loc_val : float array array;
  nlocals : int;
  (* Slots. *)
  slot_first : int array;  (** per mask; [slot_first.(m+1)] ends mask [m] *)
  slot_ord : int array;  (** order id of the retention key, 0 if none *)
  slot_card : float array;
  slot_width : int array;
  slot_wcls : int array;  (** width class within the slot's mask *)
  slot_sort : int array;  (** local usage of sorting the slot's output *)
  slot_resc : float array;
      (** rescans of the inner input when the slot is a block nested-loop
          join's outer (a function of its card and width) *)
  (* Width classes: [cls_first.(m)] is the id of mask [m]'s class 0 and
     [cls_first.(m+1)] ends its classes; class [c]'s slots, ascending,
     are [cls_slot.(cls_start.(c))] to [cls_slot.(cls_start.(c+1) - 1)]. *)
  cls_first : int array;
  cls_start : int array;
  cls_slot : int array;
  at_base : int array;  (** per mask: offset of its [slot_at] table *)
  slot_at : int array;
      (** [at_base.(m) + o * nw m + w]: the slot an output with order
          [o] and width class [w] lands in (order [o] dropped when it is
          not interesting at [m]); -1 if none *)
  (* Join edges: endpoint bits and the order ids of their columns (ids
     below [nkeys]; 0 is no order). *)
  nkeys : int;
  joins : Query.join array;
  e_bl : int array;
  e_br : int array;
  e_lord : int array;
  e_rord : int array;
  (* Splits, per mask in enumeration order. *)
  split_first : int array;
  split_s1 : int array array;
  split_bnlj : int array array;  (** local usage id *)
  split_mgj : int array array;  (** local usage id; -1 when no edge crosses *)
  cell_first : int array;
      (** per mask: its first cell; a split's cells follow the previous
          split's, [(left class) * nw s2 + right class] *)
  cell_wsum : int array array;  (** width class of the output at the mask *)
  cell_hj : int array array;  (** hash join local usage id *)
  (* Index nested loops, per mask. *)
  inlj_first : int array;
  inljs : inlj array;
  (* Access paths per alias (cost-independent leaves, kept whole). *)
  paths : Node.t array array;
  path_slot : int array array;
  path_loc : int array array;
  (* Finalization variants per full-mask slot. *)
  nvariants : int;
  final_loc : int array;
  scratch : scratch option Atomic.t;
}

type prepared = {
  env : Env.t;
  query : Query.t;
  max_bushy_side : int;
  space : space option Atomic.t;
}

(* A growable array for the enumeration, in fixed-size chunks: growing
   never copies elements, and the big tables stay in their chunks
   ([freeze]), so building a space leaves little garbage behind — peak
   memory, not time, is what a prepared space must watch. *)
module Dyn = struct
  let chunk = 128 (* cget's shift and mask *)

  type 'a t = { mutable chunks : 'a array array; mutable n : int }

  let create () = { chunks = [||]; n = 0 }
  let length t = t.n
  let get t i = t.chunks.(i / chunk).(i mod chunk)
  let set t i x = t.chunks.(i / chunk).(i mod chunk) <- x

  let push t x =
    if t.n = chunk * Array.length t.chunks then
      t.chunks <- Array.append t.chunks [| Array.make chunk x |];
    set t t.n x;
    t.n <- t.n + 1

  let to_array t = Array.init t.n (get t)

  (* The chunks themselves, for the big tables: freezing copies nothing. *)
  let freeze t = t.chunks
end

(* Element [i] of a frozen table. *)
let[@inline] cget (c : 'a array array) i = c.(i lsr 7).(i land 127)

exception Non_finite of string

let invariant what = failwith ("Optimizer.prepare: plan-space invariant: " ^ what)

(* Enumerate the plan space once, in the exact order of the memo DP —
   System-R with a hash table of retained plans per subset, rebuilt at
   every call, kept as the reference in test/support.  Each slot keeps a
   representative plan (its first alternative); one alternative per
   split cell is built from representatives to read its local usage, and
   one per slot to serve as the next representative.  Building in
   enumeration order also fixes the per-subset cardinality estimates
   exactly as a full DP would (Cardinality caches the first product it
   computes per subset). *)
let build ~max_bushy_side env (query : Query.t) =
  Obs.add m_prepares 1;
  Obs.with_span "optimizer.prepare" @@ fun () ->
  let ctx = Node.make_ctx env query in
  let aliases =
    Array.of_list (List.map (fun (r : Query.relation) -> r.alias) query.relations)
  in
  let n = Array.length aliases in
  if n = 0 then failwith "Optimizer.optimize: query has no relations";
  if Qsens_cost.Space.dim env.Env.space > 256 then
    failwith "Optimizer.optimize: more than 256 resources";
  if n > 16 then failwith "Optimizer.optimize: too many relations";
  let bit_of alias =
    let rec find i = if aliases.(i) = alias then i else find (i + 1) in
    find 0
  in
  let full = (1 lsl n) - 1 in
  let joins = Array.of_list query.joins in
  let e_bl = Array.map (fun (j : Query.join) -> 1 lsl bit_of j.left) joins in
  let e_br = Array.map (fun (j : Query.join) -> 1 lsl bit_of j.right) joins in
  (* Only an order on a join column can ever be interesting. *)
  let order_ids = Hashtbl.create 16 in
  let orders = Dyn.create () in
  Dyn.push orders ("", "");
  let order_id key =
    match Hashtbl.find_opt order_ids key with
    | Some o -> o
    | None ->
        let o = Dyn.length orders in
        Hashtbl.add order_ids key o;
        Dyn.push orders key;
        o
  in
  let e_lord =
    Array.map (fun (j : Query.join) -> order_id (j.left, j.left_col)) joins
  in
  let e_rord =
    Array.map (fun (j : Query.join) -> order_id (j.right, j.right_col)) joins
  in
  let nord = Dyn.length orders - 1 in
  (* An order is interesting only if it is on the join column of an edge
     leading out of the subset — otherwise no future merge join can use
     it, and the variant competes on cost alone (System-R's treatment of
     interesting orders). *)
  let useful mask (a, c) =
    let found = ref false in
    Array.iteri
      (fun e (j : Query.join) ->
        let out b = b land mask = 0 in
        if
          (j.left = a && j.left_col = c && out e_br.(e))
          || (j.right = a && j.right_col = c && out e_bl.(e))
        then found := true)
      joins;
    !found
  in
  let resolve mask o = if o > 0 && useful mask (Dyn.get orders o) then o else 0 in
  let ord_of_node mask (node : Node.t) =
    match node.order with
    | Some key when useful mask key -> Hashtbl.find order_ids key
    | _ -> 0
  in
  let key_string o width =
    let a, c = Dyn.get orders o in
    (if o > 0 then a ^ "." ^ c else "") ^ "#" ^ string_of_int width
  in
  let cross_edges s1 s2 =
    List.filter_map
      (fun e ->
        let bl = e_bl.(e) and br = e_br.(e) in
        if (bl land s1 <> 0 && br land s2 <> 0) || (bl land s2 <> 0 && br land s1 <> 0)
        then Some e
        else None)
      (List.init (Array.length joins) Fun.id)
  in
  (* Whether a subset's induced join graph is connected, to restrict
     cartesian products to genuinely disconnected queries. *)
  let connected = Array.make (full + 1) false in
  for mask = 1 to full do
    if popcount mask = 1 then connected.(mask) <- true
    else begin
      let reach = ref (mask land -mask) in
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun e _ ->
            let bl = e_bl.(e) and br = e_br.(e) in
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
          joins
      done;
      connected.(mask) <- !reach = mask
    end
  done;
  (* Local usages, deduplicated and stored sparse.  The table maps a
     vector's hash to the ids stored with that hash, so no vector is kept
     beyond its comparison. *)
  let local_ids = Hashtbl.create 64 in
  let loc_start = Dyn.create () and loc_idx = Buffer.create 1024 in
  let loc_val = Dyn.create () in
  let stored u (v : Qsens_linalg.Vec.t) =
    let last =
      if u + 1 < Dyn.length loc_start then Dyn.get loc_start (u + 1)
      else Buffer.length loc_idx
    in
    let k = ref (Dyn.get loc_start u) and same = ref true in
    Array.iteri
      (fun i x ->
        if x <> 0. then begin
          same :=
            !same && !k < last
            && Char.code (Buffer.nth loc_idx !k) = i
            && Dyn.get loc_val !k = x;
          incr k
        end)
      v;
    !same && !k = last
  in
  let local_id (v : Qsens_linalg.Vec.t) =
    let h = Hashtbl.hash v in
    match List.find_opt (fun u -> stored u v) (Hashtbl.find_all local_ids h) with
    | Some u -> u
    | None ->
        let u = Dyn.length loc_start in
        Hashtbl.add local_ids h u;
        Dyn.push loc_start (Buffer.length loc_idx);
        Array.iteri
          (fun i x ->
            if x <> 0. then begin
              Buffer.add_char loc_idx (Char.chr i);
              Dyn.push loc_val x
            end)
          v;
        u
  in
  let local node =
    let u = Node.local_usage ctx node in
    if not (Array.for_all Float.is_finite u) then
      raise
        (Non_finite
           (Printf.sprintf "operator %s has a non-finite resource usage"
              (Node.signature node)));
    local_id u
  in
  (* Slots. *)
  let slot_first = Array.make (full + 2) 0 in
  let slot_ord = Dyn.create () and slot_width = Dyn.create () in
  let slot_wcls = Dyn.create () and slot_sort = Dyn.create () in
  let slot_resc = Dyn.create () and slot_card = Dyn.create () in
  let reps = Dyn.create () in
  let at_base = Array.make (full + 1) 0 and slot_at = Dyn.create () in
  let cls_first = Array.make (full + 2) 0 in
  let cls_start = Dyn.create () and cls_slot = Dyn.create () in
  let nw mask = cls_first.(mask + 1) - cls_first.(mask) in
  let slots_of mask = List.init (slot_first.(mask + 1) - slot_first.(mask)) (fun i -> slot_first.(mask) + i) in
  (* The slots of the mask being enumerated: (order id, width) ->
     representative. *)
  let pending = Hashtbl.create 16 in
  let check mask (node : Node.t) ~ord ~width =
    if ord_of_node mask node <> ord || node.width <> width then
      invariant "structural retention key differs from the plan's"
  in
  let landed ~ord ~width = Hashtbl.mem pending ((ord lsl 32) lor width) in
  (* [node] is an alternative of the mask being enumerated; it becomes
     its slot's representative if it is the slot's first. *)
  let land_in mask ~ord ~width node =
    check mask node ~ord ~width;
    if not (landed ~ord ~width) then
      Hashtbl.add pending ((ord lsl 32) lor width) (ord, width, node)
  in
  let alternatives = ref 0 in
  (* Splits and their cells; cell width sums become width classes when
     the mask is finalized. *)
  let split_first = Array.make (full + 2) 0 in
  let split_s1 = Dyn.create () and split_bnlj = Dyn.create () in
  let split_mgj = Dyn.create () in
  let cell_first = Array.make (full + 2) 0 in
  let cell_wsum = Dyn.create () and cell_hj = Dyn.create () in
  let inlj_first = Array.make (full + 2) 0 in
  let inljs = Dyn.create () in
  let paths = Array.make n [||] and path_keys = Array.make n [||] in
  let path_loc = Array.make n [||] in
  let finalize mask ~cells_from ~inljs_from =
    let entries =
      Hashtbl.fold (fun _ ((o, w, _) as v) acc -> (key_string o w, v) :: acc) pending []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Hashtbl.reset pending;
    let widths = List.sort_uniq compare (List.map (fun (_, (_, w, _)) -> w) entries) in
    let wclass w =
      let rec go i = function
        | x :: rest -> if x = w then i else go (i + 1) rest
        | [] -> invariant "output width has no slot"
      in
      go 0 widths
    in
    let first = Dyn.length reps in
    slot_first.(mask) <- first;
    List.iter
      (fun (_, (o, w, rep)) ->
        Dyn.push slot_ord o;
        Dyn.push slot_width w;
        Dyn.push slot_card rep.Node.card;
        Dyn.push slot_wcls (wclass w);
        Dyn.push slot_sort (local (Node.sort ctx ~key:None rep));
        Dyn.push slot_resc 0.;
        Dyn.push reps rep)
      entries;
    slot_first.(mask + 1) <- Dyn.length reps;
    cls_first.(mask) <- Dyn.length cls_start;
    List.iter
      (fun w ->
        Dyn.push cls_start (Dyn.length cls_slot);
        List.iteri
          (fun i (_, (_, sw, _)) -> if sw = w then Dyn.push cls_slot (first + i))
          entries)
      widths;
    cls_first.(mask + 1) <- Dyn.length cls_start;
    at_base.(mask) <- Dyn.length slot_at;
    for o = 0 to nord do
      let o' = resolve mask o in
      List.iter
        (fun w ->
          let slot = ref (-1) in
          List.iteri
            (fun i (_, (so, sw, _)) -> if so = o' && sw = w then slot := first + i)
            entries;
          Dyn.push slot_at !slot)
        widths
    done;
    for c = cells_from to Dyn.length cell_wsum - 1 do
      Dyn.set cell_wsum c (wclass (Dyn.get cell_wsum c))
    done;
    for g = inljs_from to Dyn.length inljs - 1 do
      let x = Dyn.get inljs g in
      Array.iteri (fun i w -> x.inlj_wsum.(i) <- wclass w) x.inlj_wsum
    done
  in
  let rep s = Dyn.get reps s in
  let width s = Dyn.get slot_width s and ord s = Dyn.get slot_ord s in
  let wcls s = Dyn.get slot_wcls s in
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
    let cells_from = Dyn.length cell_wsum and inljs_from = Dyn.length inljs in
    split_first.(mask) <- Dyn.length split_s1;
    cell_first.(mask) <- Dyn.length cell_wsum;
    inlj_first.(mask) <- Dyn.length inljs;
    if popcount mask = 1 then begin
      (* Base access paths. *)
      let i = popcount (mask - 1) in
      let ps = Array.of_list (Node.access_paths ctx aliases.(i)) in
      paths.(i) <- ps;
      path_loc.(i) <- Array.map local ps;
      path_keys.(i) <-
        Array.map
          (fun (p : Node.t) ->
            let ord = ord_of_node mask p in
            land_in mask ~ord ~width:p.width p;
            (ord, p.width))
          ps;
      alternatives := !alternatives + Array.length ps
    end
    else begin
      let resolved = Array.init (nord + 1) (resolve mask) in
      (* Composite joins over all ordered splits. *)
      let s1 = ref ((mask - 1) land mask) in
      while !s1 <> 0 do
        let s1v = !s1 in
        let s2 = mask lxor s1v in
        (* Bushy trees are considered, but one side of a composite join is
           kept small (DB2-style heuristic): full bushy enumeration is
           cubic in the subset lattice and adds little plan diversity. *)
        let bushy_ok = min (popcount s1v) (popcount s2) <= max_bushy_side in
        let cross = if bushy_ok then cross_edges s1v s2 else [] in
        let allow_cartesian = (not connected.(mask)) && cross = [] in
        let lefts = slots_of s1v and rights = slots_of s2 in
        if (cross <> [] || allow_cartesian) && lefts <> [] && rights <> [] then begin
          let k = Dyn.length split_s1 in
          let nb = nw s2 in
          let cell0 = Dyn.length cell_wsum in
          Dyn.push split_s1 s1v;
          Dyn.push split_bnlj (-1);
          Dyn.push split_mgj (-1);
          for _ = 1 to nw s1v * nb do
            Dyn.push cell_wsum (-1);
            Dyn.push cell_hj (-1)
          done;
          let cell l r = cell0 + (wcls l * nb) + wcls r in
          (* Variants differ not only in cost and order but also in
             output width (index-only accesses are narrower), and width
             feeds downstream spill costs — so every variant pair is an
             alternative, not just the cheapest. *)
          List.iter
            (fun l ->
              List.iter
                (fun r ->
                  let c = cell l r and w = width l + width r in
                  let fresh = Dyn.get cell_wsum c < 0 in
                  if fresh then Dyn.set cell_wsum c w;
                  if cross <> [] && (fresh || not (landed ~ord:0 ~width:w)) then begin
                    let h = Node.hash_join ctx ~build:(rep l) ~probe:(rep r) in
                    if fresh then Dyn.set cell_hj c (local h);
                    land_in mask ~ord:0 ~width:w h
                  end;
                  let ord = resolved.(ord l) in
                  if fresh || not (landed ~ord ~width:w) then begin
                    let b = Node.block_nlj ctx ~outer:(rep l) ~inner:(rep r) in
                    if fresh then begin
                      (match b.op with
                      | Block_nlj { rescans; _ } ->
                          List.iter
                            (fun l' -> if wcls l' = wcls l then Dyn.set slot_resc l' rescans)
                            lefts
                      | _ -> invariant "block nested-loop join");
                      if Dyn.get split_bnlj k < 0 then Dyn.set split_bnlj k (local b)
                    end;
                    land_in mask ~ord ~width:w b
                  end;
                  alternatives := !alternatives + if cross <> [] then 2 else 1)
                rights)
            lefts;
          (* Merge join: pair key-sorted variants, adding an explicit
             sort on top of every variant that lacks the order. *)
          List.iter
            (fun e ->
              let j = joins.(e) in
              let kl, kr = merge_key s1v j in
              let ord = resolved.(order_id kl) in
              List.iter
                (fun l ->
                  List.iter
                    (fun r ->
                      let w = width l + width r in
                      if Dyn.get split_mgj k < 0 || not (landed ~ord ~width:w) then begin
                        match
                          Node.merge_join ctx ~left:(ensure_sorted (rep l) kl)
                            ~right:(ensure_sorted (rep r) kr) j
                        with
                        | None -> invariant "merge join over sorted inputs"
                        | Some m ->
                            if Dyn.get split_mgj k < 0 then Dyn.set split_mgj k (local m);
                            land_in mask ~ord ~width:w m
                      end;
                      incr alternatives)
                    rights)
                lefts)
            cross
        end;
        s1 := (s1v - 1) land mask
      done;
      (* Index nested loops with a single-table inner. *)
      for i = 0 to n - 1 do
        let b = 1 lsl i in
        let rest = mask lxor b in
        let outers = slots_of rest in
        if mask land b <> 0 && rest <> 0 && outers <> [] then begin
          let inner_alias = aliases.(i) in
          let rel = Query.relation query inner_alias in
          let indexes = Qsens_catalog.Schema.indexes_of env.Env.schema rel.table in
          (* Whether a combination applies does not depend on the outer
             variant, so the first outer decides. *)
          let first = rep (List.hd outers) in
          let combos =
            List.concat_map
              (fun e ->
                List.filter_map
                  (fun idx ->
                    Node.index_nlj ctx ~outer:first ~inner_alias idx joins.(e)
                    |> Option.map (fun node -> ((joins.(e), idx), node)))
                  indexes)
              (cross_edges b rest)
            |> Array.of_list
          in
          let nc = Array.length combos in
          if nc > 0 then begin
            let inner_w = Array.map (fun (_, (node : Node.t)) -> node.width - first.width) combos in
            let x =
              {
                rest;
                inner_alias;
                combos = Array.map fst combos;
                combo_loc = Array.map (fun (_, node) -> local node) combos;
                index_only =
                  Array.map
                    (fun (_, (node : Node.t)) ->
                      match node.op with
                      | Index_nlj { index_only; _ } -> index_only
                      | _ -> invariant "index nested-loop join")
                    combos;
                inlj_wsum = Array.make (nw rest * nc) (-1);
              }
            in
            List.iter
              (fun o ->
                let ord = resolved.(ord o) in
                Array.iteri
                  (fun c ((j, idx), node) ->
                    let w = width o + inner_w.(c) in
                    x.inlj_wsum.((wcls o * nc) + c) <- w;
                    if o = List.hd outers then land_in mask ~ord ~width:w node
                    else if not (landed ~ord ~width:w) then
                      match Node.index_nlj ctx ~outer:(rep o) ~inner_alias idx j with
                      | Some node -> land_in mask ~ord ~width:w node
                      | None -> invariant "index nested-loop join applies")
                  combos)
              outers;
            alternatives := !alternatives + (List.length outers * nc);
            Dyn.push inljs x
          end
        end
      done
    end;
    finalize mask ~cells_from ~inljs_from;
    split_first.(mask + 1) <- Dyn.length split_s1;
    inlj_first.(mask + 1) <- Dyn.length inljs
  done;
  let tops = slots_of full in
  if tops = [] then failwith "Optimizer.optimize: no plan found";
  (* Finalization variants: the chain of operators above the slot. *)
  let chain_local top (node : Node.t) =
    let v = Qsens_linalg.Vec.zero (Qsens_cost.Space.dim env.Env.space) in
    let rec walk (node : Node.t) =
      if node != top then begin
        Array.iteri (fun i x -> v.(i) <- v.(i) +. x) (Node.local_usage ctx node);
        match node.op with
        | Sort { input; _ } | Group_agg { input; _ } -> walk input
        | _ -> invariant "finalization is a chain of sorts and aggregations"
      end
    in
    walk node;
    local_id v
  in
  let variants = List.map (fun f -> Node.finalize_variants ctx (rep f)) tops in
  let nvariants = List.length (List.hd variants) in
  let final_loc =
    List.concat (List.map2 (fun f vs -> List.map (chain_local (rep f)) vs) tops variants)
    |> Array.of_list
  in
  if Array.length final_loc <> nvariants * List.length tops then
    invariant "one finalization variant count per query";
  (* Access-path targets, now that base slots have ids. *)
  let path_slot =
    Array.mapi
      (fun i keys ->
        let mask = 1 lsl i in
        Array.map
          (fun (o, w) ->
            let rec find s = if ord s = o && width s = w then s else find (s + 1) in
            find slot_first.(mask))
          keys)
      path_keys
  in
  let nslots = Dyn.length reps in
  let nlocals = Dyn.length loc_start in
  Dyn.push loc_start (Buffer.length loc_idx);
  Dyn.push cls_start (Dyn.length cls_slot);
  {
    ctx;
    dim = Qsens_cost.Space.dim env.Env.space;
    full;
    nslots;
    alternatives = !alternatives;
    loc_start = Dyn.freeze loc_start;
    loc_idx = Buffer.to_bytes loc_idx;
    loc_val = Dyn.freeze loc_val;
    nlocals;
    slot_first;
    slot_ord = Dyn.to_array slot_ord;
    slot_card = Dyn.to_array slot_card;
    slot_width = Dyn.to_array slot_width;
    slot_wcls = Dyn.to_array slot_wcls;
    slot_sort = Dyn.to_array slot_sort;
    slot_resc = Dyn.to_array slot_resc;
    cls_first;
    cls_start = Dyn.to_array cls_start;
    cls_slot = Dyn.to_array cls_slot;
    at_base;
    slot_at = Dyn.to_array slot_at;
    nkeys = nord + 1;
    joins;
    e_bl;
    e_br;
    e_lord;
    e_rord;
    split_first;
    split_s1 = Dyn.freeze split_s1;
    split_bnlj = Dyn.freeze split_bnlj;
    split_mgj = Dyn.freeze split_mgj;
    cell_first;
    cell_wsum = Dyn.freeze cell_wsum;
    cell_hj = Dyn.freeze cell_hj;
    inlj_first;
    inljs = Dyn.to_array inljs;
    paths;
    path_slot;
    path_loc;
    nvariants;
    final_loc;
    scratch = Atomic.make None;
  }

let prepare ?(max_bushy_side = 2) env query =
  { env; query; max_bushy_side; space = Atomic.make None }

let space_of p =
  match Atomic.get p.space with
  | Some sp -> sp
  | None ->
      let sp = build ~max_bushy_side:p.max_bushy_side p.env p.query in
      (* A concurrent first probe may have won the race; keep its space. *)
      if Atomic.compare_and_set p.space None (Some sp) then sp
      else Option.value (Atomic.get p.space) ~default:sp

(* Number of width classes of mask [m]. *)
let[@inline] nw sp m = sp.cls_first.(m + 1) - sp.cls_first.(m)

let new_scratch sp =
  let ns = sp.nslots + 1 in
  let ncls = sp.cls_first.(sp.full + 1) in
  {
    cost = Array.make ns infinity;
    second = Array.make ns infinity;
    win_g = Array.make ns 0;
    win_i = Array.make ns 0;
    win_op = Array.make ns 0;
    lcost = Array.make sp.nlocals 0.;
    unsafe = false;
    exact = Array.make ns [||];
    stamp = Array.make ns 0;
    probe = 0;
    settle_f = Array.make 3 0.;
    found = false;
    r_g = 0;
    r_i = 0;
    r_op = 0;
    cand = Array.make sp.dim 0.;
    keep = Array.make sp.dim 0.;
    sl = Array.make sp.dim 0.;
    sr = Array.make sp.dim 0.;
    min1 = Array.make ncls (-1);
    min2 = Array.make ncls (-1);
    adj1 = Array.make (ncls * sp.nkeys) (-1);
    adj2 = Array.make (ncls * sp.nkeys) (-1);
    adj_stamp = Array.make (ncls * sp.nkeys) 0;
    split_lo = Array.make sp.split_first.(sp.full + 1) infinity;
    costed = 0;
  }

(* Whether merge edge [e]'s left column lies on split [g]'s left side. *)
let left_first sp g e = sp.e_bl.(e) land cget sp.split_s1 g <> 0

(* The merge keys of edge [e] over split side [s1]: the left input's
   order, then the right's. *)
let[@inline] key_left sp e s1 =
  if sp.e_bl.(e) land s1 <> 0 then sp.e_lord.(e) else sp.e_rord.(e)

let[@inline] key_right sp e s1 =
  if sp.e_bl.(e) land s1 <> 0 then sp.e_rord.(e) else sp.e_lord.(e)

(* ------------------------------------------------------------------ *)
(* Materialization: winners become plans through the Node constructors,
   exactly as the memo DP built them.  A plan covers each relation once,
   so no slot is built twice. *)

let rec materialize sp sc s =
  alternative sp sc sc.win_g.(s) sc.win_i.(s) sc.win_op.(s)

and alternative sp sc g i op =
  let ctx = sp.ctx and kind = op land 7 and sub = op lsr 3 in
  let child s = materialize sp sc s in
  let l = i / sp.nslots and r = i mod sp.nslots in
  let some what = function Some node -> node | None -> invariant what in
  if kind = k_access then sp.paths.(g).(sub)
  else if kind = k_hash then Node.hash_join ctx ~build:(child l) ~probe:(child r)
  else if kind = k_bnlj then Node.block_nlj ctx ~outer:(child l) ~inner:(child r)
  else if kind = k_merge then begin
    let j = sp.joins.(sub) in
    let kl, kr =
      if left_first sp g sub then ((j.left, j.left_col), (j.right, j.right_col))
      else ((j.right, j.right_col), (j.left, j.left_col))
    in
    let sorted node key =
      if node.Node.order = Some key then node else Node.sort ctx ~key:(Some key) node
    in
    some "merge join over sorted inputs"
      (Node.merge_join ctx ~left:(sorted (child l) kl) ~right:(sorted (child r) kr) j)
  end
  else if kind = k_inlj then begin
    let x = sp.inljs.(g) in
    let j, idx = x.combos.(sub) in
    some "index nested-loop join applies"
      (Node.index_nlj ctx ~outer:(child i) ~inner_alias:x.inner_alias idx j)
  end
  else List.nth (Node.finalize_variants ctx (child i)) sub

(* Exact usage of slot [s]'s winner, computed from its inputs' through
   the Node usage functions: the usage the memo DP's plan for the slot
   has, without building it. *)
let exact_row sp sc s =
  match sc.exact.(s) with
  | [||] ->
      let row = Array.make sp.dim 0. in
      sc.exact.(s) <- row;
      row
  | row -> row

let rec exact sp sc s =
  let row = exact_row sp sc s in
  if sc.stamp.(s) <> sc.probe then begin
    usage_of sp sc s sc.win_g.(s) sc.win_i.(s) sc.win_op.(s) ~into:row;
    sc.stamp.(s) <- sc.probe
  end;
  row

(* Exact usage of alternative (g, i, op) of slot [t]. *)
and usage_of sp sc t g i op ~into =
  let ctx = sp.ctx and kind = op land 7 and sub = op lsr 3 in
  let card = sp.slot_card.(t) and ns = sp.nslots in
  if kind = k_access then begin
    let u = sp.paths.(g).(sub).Node.usage in
    Array.blit u 0 into 0 (Array.length u)
  end
  else if kind = k_inlj then begin
    let x = sp.inljs.(g) in
    let j, idx = x.combos.(sub) in
    Node.index_nlj_usage ctx ~outer_card:sp.slot_card.(i)
      ~inner_alias:x.inner_alias idx j ~index_only:x.index_only.(sub) ~card
      (exact sp sc i) ~into
  end
  else begin
    let l = i / ns and r = i mod ns in
    let ul = exact sp sc l and ur = exact sp sc r in
    let lcard = sp.slot_card.(l) and rcard = sp.slot_card.(r) in
    if kind = k_hash then
      ignore
        (Node.hash_join_usage ctx ~build_card:lcard ~build_width:sp.slot_width.(l)
           ~probe_card:rcard ~probe_width:sp.slot_width.(r) ~card ul ur ~into
          : bool)
    else if kind = k_bnlj then
      Node.block_nlj_usage ctx ~outer_card:lcard ~outer_width:sp.slot_width.(l)
        ~inner_card:rcard ~card ul ur ~into
    else begin
      (* A merge join over inputs sorted on the edge's columns, sorting a
         winner only when it lacks the order. *)
      let s1 = cget sp.split_s1 g in
      let kl = key_left sp sub s1 and kr = key_right sp sub s1 in
      let sorted s u buf key =
        if sp.slot_ord.(s) = key then u
        else begin
          ignore
            (Node.sort_usage ctx ~card:sp.slot_card.(s) ~width:sp.slot_width.(s) u
               ~into:buf
              : bool);
          buf
        end
      in
      Node.merge_join_usage ctx ~left_card:lcard ~right_card:rcard ~card
        (sorted l ul sc.sl kl) (sorted r ur sc.sr kr) ~into
    end
  end

(* Exact settlement: one alternative, within the window, of the near-tie
   slot [t] being rechecked, visited in enumeration order.  (Alternatives
   outside the window cannot be an exact minimum.)  It is costed exactly
   — [Vec.dot] of the usage its plan would have — and compared with
   strict [<], the memo DP's rule.  Finalization variants are built as
   plans. *)
let settle sp sc costs t c g i op =
  let f = sc.settle_f in
  let e =
    if t = sp.nslots then Node.cost (alternative sp sc g i op) costs
    else begin
      usage_of sp sc t g i op ~into:sc.cand;
      Qsens_linalg.Vec.dot sc.cand costs
    end
  in
  if (not sc.found) || e < f.(1) then begin
    sc.found <- true;
    f.(1) <- e;
    f.(2) <- c;
    sc.r_g <- g;
    sc.r_i <- i;
    sc.r_op <- op;
    let u = sc.keep in
    sc.keep <- sc.cand;
    sc.cand <- u
  end

(* Relative width of the near-tie window.  Approximate and exact costs
   are sums of the same non-negative products in different orders, so
   they differ by a few ulps times the plan size — far below this. *)
let eps = 1e-9

(* qsens-hot: begin *)
(* First pass: offer alternative (g, i, op) of cost [c] to slot [t],
   keeping the two smallest costs and the first minimum. *)
let[@inline] keep sc t c g i op =
  sc.costed <- sc.costed + 1;
  let best = sc.cost.(t) in
  if c < best then begin
    sc.second.(t) <- best;
    sc.cost.(t) <- c;
    sc.win_g.(t) <- g;
    sc.win_i.(t) <- i;
    sc.win_op.(t) <- op
  end
  else if c < sc.second.(t) then sc.second.(t) <- c

(* Replay: alternative (g, i, op) lands in the slot [t] being rechecked;
   forward it to [settle] when it lies in the window. *)
let[@inline] offer sp sc costs t c g i op =
  sc.costed <- sc.costed + 1;
  if sc.unsafe || c <= sc.settle_f.(0) then settle sp sc costs t c g i op

(* [keep] with [only < 0]; otherwise [offer] when [t] is slot [only]. *)
let[@inline] consider sp sc costs ~only t c g i op =
  if only < 0 then keep sc t c g i op
  else if t = only then offer sp sc costs t c g i op

(* Slot [s]'s cost as a merge input sorted on order [key] (its own cost
   for [key < 0]). *)
let[@inline] keyed sp sc s key =
  if key < 0 || sp.slot_ord.(s) = key then sc.cost.(s)
  else sc.cost.(s) +. sc.lcost.(sp.slot_sort.(s))

(* The two cheapest slots of class [c] under [key] into [a.(j)] and
   [b.(j)], ties to the first; [b.(j)] is -1 when the class has one
   slot. *)
let cheapest sp sc ~key c a b j =
  let i0 = sp.cls_start.(c) in
  let m1 = ref sp.cls_slot.(i0) and m2 = ref (-1) in
  for i = i0 + 1 to sp.cls_start.(c + 1) - 1 do
    let s = sp.cls_slot.(i) in
    let x = keyed sp sc s key in
    if x < keyed sp sc !m1 key then begin
      m2 := !m1;
      m1 := s
    end
    else if !m2 < 0 || x < keyed sp sc !m2 key then m2 := s
  done;
  a.(j) <- !m1;
  b.(j) <- !m2

(* The index of class [c]'s two cheapest slots sorted on [key] in
   [adj1] and [adj2]. *)
let[@inline] sorted_min sp sc c key =
  let j = (c * sp.nkeys) + key in
  if sc.adj_stamp.(j) <> sc.probe then begin
    cheapest sp sc ~key c sc.adj1 sc.adj2 j;
    sc.adj_stamp.(j) <- sc.probe
  end;
  j

(* Whether join edge [e] crosses the split ([s1], [s2]). *)
let[@inline] crosses sp e s1 s2 =
  let bl = sp.e_bl.(e) and br = sp.e_br.(e) in
  (bl land s1 <> 0 && br land s2 <> 0) || (bl land s2 <> 0 && br land s1 <> 0)

(* The right class whose cell in [row] (of [nb] cells) lands in width
   class [wt]; -1 if none.  Right classes have distinct widths, so there
   is at most one. *)
let[@inline] inner_class sp row nb wt =
  let w = ref (-1) in
  for wr = 0 to nb - 1 do
    if cget sp.cell_wsum (row + wr) = wt then w := wr
  done;
  !w

(* The class-minimum pass over one mask's splits.  A join's cost is
   [fl(fl(x + y) + local)] (the block nested-loop join's inner term
   [fl(rescans * y)], rescans >= 0), monotone in each input cost [x] and
   [y], and its target slot depends on a pair only through the cell (and
   the block nested-loop join's outer order).  So over one cell the two
   smallest costs are among the pairs (1,1), (1,2) and (2,1) of each
   class's two cheapest inputs, and every slot gets exactly the minimum
   and runner-up the full pass would give it.  Each split also records
   its cheapest alternative, which bounds every alternative of it from
   below for the near-tie replay. *)
let class_pass sp sc mask =
  let cost = sc.cost and lc = sc.lcost and ns = sp.nslots in
  let tb = sp.at_base.(mask) and tnw = nw sp mask in
  let next_cell = ref sp.cell_first.(mask) in
  for k = sp.split_first.(mask) to sp.split_first.(mask + 1) - 1 do
    let s1 = cget sp.split_s1 k in
    let s2 = mask lxor s1 in
    let na = nw sp s1 and nb = nw sp s2 in
    let c1 = sp.cls_first.(s1) and c2 = sp.cls_first.(s2) in
    let cell0 = !next_cell in
    next_cell := cell0 + (na * nb);
    let cross = cget sp.split_mgj k >= 0 in
    let lo = ref infinity in
    if cross then
      for wl = 0 to na - 1 do
        let l1 = sc.min1.(c1 + wl) and l2 = sc.min2.(c1 + wl) in
        for wr = 0 to nb - 1 do
          let r1 = sc.min1.(c2 + wr) and r2 = sc.min2.(c2 + wr) in
          let cell = cell0 + (wl * nb) + wr in
          let t = sp.slot_at.(tb + cget sp.cell_wsum cell) in
          let h = lc.(cget sp.cell_hj cell) in
          let c = cost.(l1) +. cost.(r1) +. h in
          if c < !lo then lo := c;
          keep sc t c k ((l1 * ns) + r1) k_hash;
          if r2 >= 0 then
            keep sc t (cost.(l1) +. cost.(r2) +. h) k ((l1 * ns) + r2) k_hash;
          if l2 >= 0 then
            keep sc t (cost.(l2) +. cost.(r1) +. h) k ((l2 * ns) + r1) k_hash
        done
      done;
    let bnlj = lc.(cget sp.split_bnlj k) in
    for l = sp.slot_first.(s1) to sp.slot_first.(s1 + 1) - 1 do
      let cl = cost.(l) and resc = sp.slot_resc.(l) in
      let row = cell0 + (sp.slot_wcls.(l) * nb) in
      let trow = tb + (sp.slot_ord.(l) * tnw) in
      for wr = 0 to nb - 1 do
        let t = sp.slot_at.(trow + cget sp.cell_wsum (row + wr)) in
        let r1 = sc.min1.(c2 + wr) and r2 = sc.min2.(c2 + wr) in
        let c = cl +. (resc *. cost.(r1)) +. bnlj in
        if c < !lo then lo := c;
        keep sc t c k ((l * ns) + r1) k_bnlj;
        if r2 >= 0 then
          keep sc t (cl +. (resc *. cost.(r2)) +. bnlj) k ((l * ns) + r2) k_bnlj
      done
    done;
    if cross then begin
      let mgj = lc.(cget sp.split_mgj k) in
      for e = 0 to Array.length sp.e_bl - 1 do
        if crosses sp e s1 s2 then begin
          let kl = key_left sp e s1 and kr = key_right sp e s1 in
          let op = k_merge + (e lsl 3) and trow = tb + (kl * tnw) in
          for wl = 0 to na - 1 do
            let jl = sorted_min sp sc (c1 + wl) kl in
            let l1 = sc.adj1.(jl) and l2 = sc.adj2.(jl) in
            let x1 = keyed sp sc l1 kl in
            for wr = 0 to nb - 1 do
              let jr = sorted_min sp sc (c2 + wr) kr in
              let r1 = sc.adj1.(jr) and r2 = sc.adj2.(jr) in
              let y1 = keyed sp sc r1 kr in
              let t = sp.slot_at.(trow + cget sp.cell_wsum (cell0 + (wl * nb) + wr)) in
              let c = x1 +. y1 +. mgj in
              if c < !lo then lo := c;
              keep sc t c k ((l1 * ns) + r1) op;
              if r2 >= 0 then
                keep sc t (x1 +. keyed sp sc r2 kr +. mgj) k ((l1 * ns) + r2) op;
              if l2 >= 0 then
                keep sc t (keyed sp sc l2 kl +. y1 +. mgj) k ((l2 * ns) + r1) op
            done
          done
        end
      done
    end;
    sc.split_lo.(k) <- !lo
  done

(* The near-tie replay of slot [t] over split [k] of [mask] (its cells
   from [cell0]): the alternatives that land in [t], in the memo DP's
   order.  Per outer slot only one inner class can land there; its slots
   are walked in ascending id, and an outer slot whose cheapest pairing
   (with the class minimum) is above the window bound is skipped, as
   every pairing of it is. *)
let replay_split sp sc costs mask t k cell0 =
  let cost = sc.cost and lc = sc.lcost and ns = sp.nslots in
  let tb = sp.at_base.(mask) and tnw = nw sp mask and wt = sp.slot_wcls.(t) in
  let bound = sc.settle_f.(0) and unsafe = sc.unsafe in
  let s1 = cget sp.split_s1 k in
  let s2 = mask lxor s1 in
  let nb = nw sp s2 and c2 = sp.cls_first.(s2) in
  let l0 = sp.slot_first.(s1) and l1 = sp.slot_first.(s1 + 1) - 1 in
  let cross = cget sp.split_mgj k >= 0 in
  let hash_in = cross && sp.slot_at.(tb + wt) = t in
  let bnlj = lc.(cget sp.split_bnlj k) in
  for l = l0 to l1 do
    let row = cell0 + (sp.slot_wcls.(l) * nb) in
    let wr = inner_class sp row nb wt in
    let bnlj_in = sp.slot_at.(tb + (sp.slot_ord.(l) * tnw) + wt) = t in
    if wr >= 0 && (hash_in || bnlj_in) then begin
      let c = c2 + wr in
      let cl = cost.(l) and resc = sp.slot_resc.(l) and lo = cost.(sc.min1.(c)) in
      let h = if hash_in then lc.(cget sp.cell_hj (row + wr)) else 0. in
      let hash_on = hash_in && (unsafe || not (cl +. lo +. h > bound)) in
      let bnlj_on = bnlj_in && (unsafe || not (cl +. (resc *. lo) +. bnlj > bound)) in
      if hash_on || bnlj_on then
        for i = sp.cls_start.(c) to sp.cls_start.(c + 1) - 1 do
          let r = sp.cls_slot.(i) in
          if hash_on then
            offer sp sc costs t (cl +. cost.(r) +. h) k ((l * ns) + r) k_hash;
          if bnlj_on then
            offer sp sc costs t (cl +. (resc *. cost.(r)) +. bnlj) k ((l * ns) + r) k_bnlj
        done
    end
  done;
  if cross then begin
    let mgj = lc.(cget sp.split_mgj k) in
    for e = 0 to Array.length sp.e_bl - 1 do
      let kl = key_left sp e s1 in
      if crosses sp e s1 s2 && sp.slot_at.(tb + (kl * tnw) + wt) = t then begin
        let kr = key_right sp e s1 and op = k_merge + (e lsl 3) in
        for l = l0 to l1 do
          let wr = inner_class sp (cell0 + (sp.slot_wcls.(l) * nb)) nb wt in
          if wr >= 0 then begin
            let cl = keyed sp sc l kl and c = c2 + wr in
            let lo = keyed sp sc sc.adj1.(sorted_min sp sc c kr) kr in
            if unsafe || not (cl +. lo +. mgj > bound) then
              for i = sp.cls_start.(c) to sp.cls_start.(c + 1) - 1 do
                let r = sp.cls_slot.(i) in
                offer sp sc costs t (cl +. keyed sp sc r kr +. mgj) k ((l * ns) + r) op
              done
          end
        done
      end
    done
  end

(* The replay of slot [t] over every split of [mask] whose cheapest
   alternative (from the class pass) lies in the window. *)
let replay_splits sp sc costs mask t =
  let cell0 = ref sp.cell_first.(mask) in
  for k = sp.split_first.(mask) to sp.split_first.(mask + 1) - 1 do
    let s1 = cget sp.split_s1 k in
    if sc.unsafe || not (sc.split_lo.(k) > sc.settle_f.(0)) then
      replay_split sp sc costs mask t k !cell0;
    cell0 := !cell0 + (nw sp s1 * nw sp (mask lxor s1))
  done

(* One mask's alternatives: its class-minimum pass ([only < 0]) or the
   replay of slot [only].  Access paths and index nested loops are few
   and costed one by one either way. *)
let pass_mask sp sc costs ~only mask =
  let cost = sc.cost and lc = sc.lcost in
  if popcount mask = 1 then begin
    let a = popcount (mask - 1) in
    let targets = sp.path_slot.(a) and locs = sp.path_loc.(a) in
    for p = 0 to Array.length targets - 1 do
      consider sp sc costs ~only targets.(p) lc.(locs.(p)) a 0 (k_access + (p lsl 3))
    done
  end
  else begin
    if only < 0 then class_pass sp sc mask else replay_splits sp sc costs mask only;
    let tb = sp.at_base.(mask) and tnw = nw sp mask in
    for g = sp.inlj_first.(mask) to sp.inlj_first.(mask + 1) - 1 do
      let x = sp.inljs.(g) in
      let nc = Array.length x.combo_loc in
      for o = sp.slot_first.(x.rest) to sp.slot_first.(x.rest + 1) - 1 do
        let co = cost.(o) and row = sp.slot_wcls.(o) * nc in
        let trow = tb + (sp.slot_ord.(o) * tnw) in
        for c = 0 to nc - 1 do
          consider sp sc costs ~only sp.slot_at.(trow + x.inlj_wsum.(row + c))
            (co +. lc.(x.combo_loc.(c)))
            g o (k_inlj + (c lsl 3))
        done
      done
    done
  end

(* The finalization variants of every full-mask slot, into the extra
   slot [nslots]. *)
let pass_final sp sc costs ~only =
  let t = sp.nslots and nv = sp.nvariants and f0 = sp.slot_first.(sp.full) in
  for f = f0 to sp.slot_first.(sp.full + 1) - 1 do
    for v = 0 to nv - 1 do
      consider sp sc costs ~only t
        (sc.cost.(f) +. sc.lcost.(sp.final_loc.(((f - f0) * nv) + v)))
        0 f (k_final + (v lsl 3))
    done
  done

let local_costs sp sc costs =
  let lc = sc.lcost in
  for u = 0 to Array.length lc - 1 do
    let acc = ref 0. in
    for e = cget sp.loc_start u to cget sp.loc_start (u + 1) - 1 do
      acc :=
        !acc +. (cget sp.loc_val e *. costs.(Char.code (Bytes.get sp.loc_idx e)))
    done;
    lc.(u) <- !acc
  done
(* qsens-hot: end *)

let near_tie sc t = sc.unsafe || sc.second.(t) <= sc.cost.(t) +. (eps *. sc.cost.(t))

(* Replay slot [t]'s alternatives and keep the exact first minimum. *)
let recheck sp sc costs ~mask t =
  Obs.add m_rechecks 1;
  sc.settle_f.(0) <- sc.cost.(t) +. (eps *. sc.cost.(t));
  sc.found <- false;
  if t = sp.nslots then pass_final sp sc costs ~only:t
  else pass_mask sp sc costs ~only:t mask;
  if not sc.found then invariant "a near-tie slot has an alternative in its window";
  sc.cost.(t) <- sc.settle_f.(2);
  sc.win_g.(t) <- sc.r_g;
  sc.win_i.(t) <- sc.r_i;
  sc.win_op.(t) <- sc.r_op;
  if t < sp.nslots then begin
    Array.blit sc.keep 0 (exact_row sp sc t) 0 sp.dim;
    sc.stamp.(t) <- sc.probe
  end

(* [optimizer.costed] is added once per mask, not per alternative. *)
let counted sc =
  Obs.add m_costed sc.costed;
  sc.costed <- 0

let run sp sc costs =
  sc.probe <- sc.probe + 1;
  local_costs sp sc costs;
  Array.fill sc.cost 0 (Array.length sc.cost) infinity;
  Array.fill sc.second 0 (Array.length sc.second) infinity;
  sc.unsafe <- not (Array.for_all (fun c -> c >= 0. && c < infinity) costs);
  for mask = 1 to sp.full do
    if sp.slot_first.(mask + 1) > sp.slot_first.(mask) then begin
      pass_mask sp sc costs ~only:(-1) mask;
      for t = sp.slot_first.(mask) to sp.slot_first.(mask + 1) - 1 do
        if near_tie sc t then recheck sp sc costs ~mask t
      done;
      (* The mask is settled: its class minima feed the masks above. *)
      for c = sp.cls_first.(mask) to sp.cls_first.(mask + 1) - 1 do
        cheapest sp sc ~key:(-1) c sc.min1 sc.min2 c
      done;
      counted sc
    end
  done;
  pass_final sp sc costs ~only:(-1);
  if near_tie sc sp.nslots then recheck sp sc costs ~mask:sp.full sp.nslots;
  counted sc;
  materialize sp sc sp.nslots

let best p ~costs =
  Obs.add m_calls 1;
  Obs.with_span "optimizer.optimize" @@ fun () ->
  let dim = Qsens_cost.Space.dim p.env.Env.space in
  if Array.length costs <> dim then
    invalid_arg
      (Printf.sprintf "Optimizer.best: costs have dimension %d, the resource space %d"
         (Array.length costs) dim);
  let sp = space_of p in
  Obs.add m_memo_inserts sp.alternatives;
  let sc =
    match Atomic.exchange sp.scratch None with
    | Some sc -> sc
    | None -> new_scratch sp
  in
  let plan = run sp sc costs in
  Atomic.set sp.scratch (Some sc);
  { plan; total_cost = Node.cost plan costs; signature = Node.signature plan }

let optimize ?max_bushy_side env query ~costs =
  best (prepare ?max_bushy_side env query) ~costs
