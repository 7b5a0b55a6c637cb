open Qsens_plan
module Obs = Qsens_obs.Obs

let m_calls = Obs.counter ~help:"optimizer invocations" "optimizer.calls"

let m_memo_inserts =
  Obs.counter ~help:"plan alternatives considered" "optimizer.memo_inserts"

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
   each split keeps one small cell per pair of width classes. *)

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
  nw : int array;  (** per mask: number of distinct widths *)
  at_base : int array;  (** per mask: offset of its [slot_at] table *)
  slot_at : int array;
      (** [at_base.(m) + o * nw.(m) + w]: the slot an output with order
          [o] and width class [w] lands in (order [o] dropped when it is
          not interesting at [m]); -1 if none *)
  (* Join edges: endpoint bits and the order ids of their columns. *)
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
  let local node = local_id (Node.local_usage ctx node) in
  (* Slots. *)
  let slot_first = Array.make (full + 2) 0 in
  let slot_ord = Dyn.create () and slot_width = Dyn.create () in
  let slot_wcls = Dyn.create () and slot_sort = Dyn.create () in
  let slot_resc = Dyn.create () and slot_card = Dyn.create () in
  let reps = Dyn.create () in
  let nw = Array.make (full + 1) 0 and at_base = Array.make (full + 1) 0 in
  let slot_at = Dyn.create () in
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
    nw.(mask) <- List.length widths;
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
          let nb = nw.(s2) in
          let cell0 = Dyn.length cell_wsum in
          Dyn.push split_s1 s1v;
          Dyn.push split_bnlj (-1);
          Dyn.push split_mgj (-1);
          for _ = 1 to nw.(s1v) * nb do
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
                inlj_wsum = Array.make (nw.(rest) * nc) (-1);
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
    nw;
    at_base;
    slot_at = Dyn.to_array slot_at;
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

let new_scratch sp =
  let ns = sp.nslots + 1 in
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
  }

(* Whether merge edge [e]'s left column lies on split [g]'s left side. *)
let left_first sp g e = sp.e_bl.(e) land cget sp.split_s1 g <> 0

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
      let lf = left_first sp g sub in
      let kl = if lf then sp.e_lord.(sub) else sp.e_rord.(sub) in
      let kr = if lf then sp.e_rord.(sub) else sp.e_lord.(sub) in
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
(* Offer alternative (g, i, op) of cost [c] to slot [t].  With [only < 0]
   this keeps the two smallest costs and the first minimum; otherwise it
   forwards slot [only]'s alternatives within the window to [settle]. *)
let[@inline] consider sp sc costs ~only t c g i op =
  if only < 0 then begin
    let best = sc.cost.(t) in
    if c < best then begin
      sc.second.(t) <- best;
      sc.cost.(t) <- c;
      sc.win_g.(t) <- g;
      sc.win_i.(t) <- i;
      sc.win_op.(t) <- op
    end
    else if c < sc.second.(t) then sc.second.(t) <- c
  end
  else if t = only && (sc.unsafe || c <= sc.settle_f.(0)) then
    settle sp sc costs t c g i op

(* Every alternative of one mask's slots, in the memo DP's order. *)
let pass_mask sp sc costs ~only mask =
  let cost = sc.cost and lc = sc.lcost and ns = sp.nslots in
  let tb = sp.at_base.(mask) and tnw = sp.nw.(mask) in
  if popcount mask = 1 then begin
    let a = popcount (mask - 1) in
    let targets = sp.path_slot.(a) and locs = sp.path_loc.(a) in
    for p = 0 to Array.length targets - 1 do
      consider sp sc costs ~only targets.(p) lc.(locs.(p)) a 0 (k_access + (p lsl 3))
    done
  end
  else begin
    let next_cell = ref sp.cell_first.(mask) in
    for k = sp.split_first.(mask) to sp.split_first.(mask + 1) - 1 do
      let s1 = cget sp.split_s1 k in
      let s2 = mask lxor s1 in
      let l0 = sp.slot_first.(s1) and l1 = sp.slot_first.(s1 + 1) - 1 in
      let r0 = sp.slot_first.(s2) and r1 = sp.slot_first.(s2 + 1) - 1 in
      let nb = sp.nw.(s2) and cell0 = !next_cell in
      next_cell := cell0 + (sp.nw.(s1) * nb);
      let cross = cget sp.split_mgj k >= 0 in
      let bnlj = lc.(cget sp.split_bnlj k) in
      for l = l0 to l1 do
        let cl = cost.(l) and resc = sp.slot_resc.(l) in
        let row = cell0 + (sp.slot_wcls.(l) * nb) in
        let trow = tb + (sp.slot_ord.(l) * tnw) in
        for r = r0 to r1 do
          let cell = row + sp.slot_wcls.(r) in
          let wc = cget sp.cell_wsum cell and cr = cost.(r) in
          if cross then
            consider sp sc costs ~only sp.slot_at.(tb + wc)
              (cl +. cr +. lc.(cget sp.cell_hj cell))
              k ((l * ns) + r) k_hash;
          consider sp sc costs ~only sp.slot_at.(trow + wc)
            (cl +. (resc *. cr) +. bnlj)
            k ((l * ns) + r) k_bnlj
        done
      done;
      if cross then begin
        let mgj = lc.(cget sp.split_mgj k) in
        for e = 0 to Array.length sp.e_bl - 1 do
          let bl = sp.e_bl.(e) and br = sp.e_br.(e) in
          if (bl land s1 <> 0 && br land s2 <> 0) || (bl land s2 <> 0 && br land s1 <> 0)
          then begin
            let left_first = bl land s1 <> 0 in
            let kl = if left_first then sp.e_lord.(e) else sp.e_rord.(e) in
            let kr = if left_first then sp.e_rord.(e) else sp.e_lord.(e) in
            let trow = tb + (kl * tnw) in
            for l = l0 to l1 do
              let cl =
                if sp.slot_ord.(l) = kl then cost.(l)
                else cost.(l) +. lc.(sp.slot_sort.(l))
              in
              let row = cell0 + (sp.slot_wcls.(l) * nb) in
              for r = r0 to r1 do
                let cr =
                  if sp.slot_ord.(r) = kr then cost.(r)
                  else cost.(r) +. lc.(sp.slot_sort.(r))
                in
                consider sp sc costs ~only
                  sp.slot_at.(trow + cget sp.cell_wsum (row + sp.slot_wcls.(r)))
                  (cl +. cr +. mgj)
                  k ((l * ns) + r) (k_merge + (e lsl 3))
              done
            done
          end
        done
      end
    done;
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
      done
    end
  done;
  pass_final sp sc costs ~only:(-1);
  if near_tie sc sp.nslots then recheck sp sc costs ~mask:sp.full sp.nslots;
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
