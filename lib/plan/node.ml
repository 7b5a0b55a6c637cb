open Qsens_catalog
open Qsens_cost
open Qsens_linalg

type order = (string * string) option

type access_kind =
  | Table_scan
  | Index_range of { index : Index.t; match_sel : float; index_only : bool }

type op =
  | Access of { alias : string; kind : access_kind }
  | Block_nlj of { outer : t; inner : t; rescans : float }
  | Index_nlj of {
      outer : t;
      inner_alias : string;
      index : Index.t;
      join : Query.join;
      index_only : bool;
    }
  | Hash_join of { build : t; probe : t; spilled : bool }
  | Merge_join of { left : t; right : t }
  | Sort of { input : t; key : order; spilled : bool }
  | Group_agg of { input : t; hash : bool; spilled : bool }

and t = {
  op : op;
  aliases : string list;
  card : float;
  width : int;
  usage : Vec.t;
  order : order;
}

type ctx = { env : Env.t; query : Query.t; est : Cardinality.t }

let make_ctx env query = { env; query; est = Cardinality.make env.schema query }

(* Pages scanned per positioning seek during a sequential read. *)
let seq_extent = 64.

(* CPU instructions to evaluate one join pair in a nested loop. *)
let cpu_pair = 20.

let pages_of_rows card width =
  Float.max 1. (card *. Float.of_int width /. Float.of_int Table.page_capacity)

(* A small mutable accumulator for building usage vectors. *)
module Acc = struct
  type nonrec t = { space : Space.t; v : Vec.t }

  let create (env : Env.t) = { space = env.space; v = Space.zero_usage env.space }

  (* Accumulate into [into], starting from a copy of [v]. *)
  let over (env : Env.t) ~into v =
    if Array.length v <> Array.length into then
      invalid_arg "Node: usage vector of the wrong dimension";
    Array.blit v 0 into 0 (Array.length v);
    { space = env.space; v = into }

  let seek t dev n = Space.add_usage t.space t.v (Resource.Seek dev) n
  let xfer t dev n = Space.add_usage t.space t.v (Resource.Transfer dev) n
  let cpu t n = Space.add_usage t.space t.v Resource.Cpu n
  let add t v =
    for i = 0 to Array.length v - 1 do
      t.v.(i) <- t.v.(i) +. v.(i)
    done

  let add_scaled t k v =
    for i = 0 to Array.length v - 1 do
      t.v.(i) <- t.v.(i) +. (k *. v.(i))
    done
  let vec t = t.v
end

let needed_columns ctx alias =
  let r = Query.relation ctx.query alias in
  let pred_cols = List.map (fun (p : Query.pred) -> p.column) r.preds in
  let join_cols =
    List.filter_map
      (fun (j : Query.join) ->
        if j.left = alias then Some j.left_col
        else if j.right = alias then Some j.right_col
        else None)
      ctx.query.joins
  in
  List.sort_uniq String.compare (pred_cols @ join_cols @ r.projected)

let scan_order (idx : Index.t) alias : order =
  match idx.key_columns with col :: _ -> Some (alias, col) | [] -> None

(* Sequential read of [pages] pages from [dev]. *)
let sequential acc dev pages =
  Acc.seek acc dev (Float.max 1. (pages /. seq_extent));
  Acc.xfer acc dev pages

(* Random fetch of rows from a table's data pages through an index.  A
   clustered index reads the qualifying pages sequentially; an unclustered
   one pays a random page read per distinct page touched. *)
let fetch_rows ctx acc ~alias ~(index : Index.t) ~probes ~rows =
  let env = ctx.env in
  let r = Query.relation ctx.query alias in
  let tbl = Env.table env r.table in
  let dev = Env.table_dev env r.table in
  let pages = Table.pages tbl in
  if index.clustered then begin
    let page_refs =
      probes
      *. Float.max 1.
           (rows /. probes *. Float.of_int (Table.row_width tbl)
           /. Float.of_int Table.page_capacity)
    in
    (* Clustered runs are sequential: each probe reads contiguous pages.
       Re-reads across probes hit the buffer pool only when the table
       fits in it. *)
    let io =
      if pages <= env.buffer_pages then Float.min page_refs pages
      else page_refs
    in
    (* One positioning seek per probe, plus track-to-track seeks at extent
       rate along the sequential run. *)
    Acc.seek acc dev (Float.min probes io +. (io /. seq_extent));
    Acc.xfer acc dev io
  end
  else begin
    let io = Yao.io_pages ~pages ~buffer:env.buffer_pages rows in
    Acc.seek acc dev io;
    Acc.xfer acc dev io
  end;
  Acc.cpu acc (rows *. Defaults.cpu_row)

let constructions = ref 0

(* [aliases] must be sorted: binary operators merge their children's. *)
let mk op ~aliases ~card ~width ~usage ~order =
  incr constructions;
  { op; aliases; card; width; usage; order }

let merge_aliases a b = List.merge String.compare a b

let table_scan ctx alias =
  let env = ctx.env in
  let r = Query.relation ctx.query alias in
  let tbl = Env.table env r.table in
  let acc = Acc.create env in
  sequential acc (Env.table_dev env r.table) (Table.pages tbl);
  Acc.cpu acc (tbl.Table.rows *. Defaults.cpu_row);
  mk
    (Access { alias; kind = Table_scan })
    ~aliases:[ alias ] ~card:(Cardinality.base ctx.est alias)
    ~width:(Table.row_width tbl) ~usage:(Acc.vec acc) ~order:None

let join_columns_of ctx alias =
  List.filter_map
    (fun (j : Query.join) ->
      if j.left = alias then Some j.left_col
      else if j.right = alias then Some j.right_col
      else None)
    ctx.query.joins

let index_scan ctx alias (idx : Index.t) =
  let env = ctx.env in
  let r = Query.relation ctx.query alias in
  if idx.table <> r.table then None
  else begin
    let tbl = Env.table env r.table in
    let needed = needed_columns ctx alias in
    let index_only = Index.covers idx needed in
    let matching_pred =
      List.find_opt (fun (p : Query.pred) -> Index.matches_column idx p.column)
        r.preds
    in
    let match_sel =
      match matching_pred with Some p -> p.selectivity | None -> 1.
    in
    let leading_is_join_col =
      match idx.key_columns with
      | lead :: _ -> List.exists (String.equal lead) (join_columns_of ctx alias)
      | [] -> false
    in
    (* Reject accesses that neither filter, nor cover, nor provide a
       useful order: they are dominated by the plain table scan. *)
    if matching_pred = None && (not index_only) && not leading_is_join_col then
      None
    else begin
      let acc = Acc.create env in
      let idev = Env.index_dev env r.table in
      let leaf = Index.leaf_pages idx tbl in
      let scanned_entries = tbl.Table.rows *. match_sel in
      let leaf_read = Float.max 1. (leaf *. match_sel) in
      Acc.seek acc idev (1. +. (leaf_read /. seq_extent));
      Acc.xfer acc idev leaf_read;
      Acc.cpu acc
        (Defaults.cpu_index_probe +. (scanned_entries *. Defaults.cpu_row *. 0.25));
      if not index_only then
        fetch_rows ctx acc ~alias ~index:idx ~probes:1. ~rows:scanned_entries;
      let width =
        if index_only then Index.entry_width idx tbl else Table.row_width tbl
      in
      Some
        (mk
           (Access { alias; kind = Index_range { index = idx; match_sel; index_only } })
           ~aliases:[ alias ] ~card:(Cardinality.base ctx.est alias)
           ~width ~usage:(Acc.vec acc) ~order:(scan_order idx alias))
    end
  end

let access_paths ctx alias =
  let r = Query.relation ctx.query alias in
  let indexes = Schema.indexes_of ctx.env.schema r.table in
  table_scan ctx alias :: List.filter_map (index_scan ctx alias) indexes

(* Usage without construction.  Each join, sort and aggregation
   constructor is a [*_usage] function — the operator's usage, written
   into a buffer from its inputs' usage and their cost-independent
   properties — plus the plan node around that usage.  Re-costing an
   operator over other inputs of the same properties calls the same
   function, so it repeats the constructor's float operations exactly. *)

let block_nlj_rescans env ~outer_card ~outer_width =
  let outer_pages = pages_of_rows outer_card outer_width in
  Float.max 1. (Float.round (outer_pages /. env.Env.sort_heap_pages +. 0.5))

let block_nlj_usage ctx ~outer_card ~outer_width ~inner_card ~card outer inner ~into =
  let acc = Acc.over ctx.env ~into outer in
  Acc.add_scaled acc (block_nlj_rescans ctx.env ~outer_card ~outer_width) inner;
  Acc.cpu acc ((outer_card *. inner_card *. cpu_pair) +. (card *. Defaults.cpu_join_output))

let block_nlj ctx ~outer ~inner =
  let card =
    Cardinality.of_aliases ctx.est (outer.aliases @ inner.aliases)
  in
  let usage = Space.zero_usage ctx.env.space in
  block_nlj_usage ctx ~outer_card:outer.card ~outer_width:outer.width
    ~inner_card:inner.card ~card outer.usage inner.usage ~into:usage;
  let rescans =
    block_nlj_rescans ctx.env ~outer_card:outer.card ~outer_width:outer.width
  in
  mk
    (Block_nlj { outer; inner; rescans })
    ~aliases:(merge_aliases outer.aliases inner.aliases)
    ~card ~width:(outer.width + inner.width) ~usage ~order:outer.order

let index_nlj_usage ctx ~outer_card ~inner_alias (idx : Index.t) (j : Query.join)
    ~index_only ~card outer ~into =
  let env = ctx.env in
  let r = Query.relation ctx.query inner_alias in
  let tbl = Env.table env r.table in
  let probes = Float.max 1. outer_card in
  let per_probe = Cardinality.matches_per_probe ctx.est ~inner:inner_alias j in
  let matched = probes *. per_probe in
  let acc = Acc.over env ~into outer in
  let idev = Env.index_dev env r.table in
  let leaf = Index.leaf_pages idx tbl in
  let leaf_refs =
    probes
    *. Float.max 1.
         (per_probe *. Float.of_int (Index.entry_width idx tbl)
         /. Float.of_int Table.page_capacity)
  in
  let leaf_io = Yao.io_pages ~pages:leaf ~buffer:env.buffer_pages leaf_refs in
  Acc.seek acc idev leaf_io;
  Acc.xfer acc idev leaf_io;
  Acc.cpu acc (probes *. Defaults.cpu_index_probe);
  if not index_only then
    fetch_rows ctx acc ~alias:inner_alias ~index:idx ~probes ~rows:matched;
  Acc.cpu acc (card *. Defaults.cpu_join_output)

let index_nlj ctx ~outer ~inner_alias (idx : Index.t) (j : Query.join) =
  let env = ctx.env in
  let r = Query.relation ctx.query inner_alias in
  let inner_col, outer_alias =
    if j.left = inner_alias then (j.left_col, j.right) else (j.right_col, j.left)
  in
  if
    idx.table <> r.table
    || (not (Index.matches_column idx inner_col))
    || not (List.exists (String.equal outer_alias) outer.aliases)
  then None
  else begin
    let tbl = Env.table env r.table in
    let needed = needed_columns ctx inner_alias in
    let index_only = Index.covers idx needed in
    let card =
      Cardinality.of_aliases ctx.est (inner_alias :: outer.aliases)
    in
    let usage = Space.zero_usage env.space in
    index_nlj_usage ctx ~outer_card:outer.card ~inner_alias idx j ~index_only
      ~card outer.usage ~into:usage;
    let inner_width =
      if index_only then Index.entry_width idx tbl else Table.row_width tbl
    in
    Some
      (mk
         (Index_nlj { outer; inner_alias; index = idx; join = j; index_only })
         ~aliases:(merge_aliases [ inner_alias ] outer.aliases)
         ~card ~width:(outer.width + inner_width) ~usage ~order:outer.order)
  end

let hash_join_usage ctx ~build_card ~build_width ~probe_card ~probe_width ~card
    build probe ~into =
  let env = ctx.env in
  let acc = Acc.over env ~into build in
  Acc.add acc probe;
  let build_pages = pages_of_rows build_card build_width in
  let probe_pages = pages_of_rows probe_card probe_width in
  let spilled = build_pages > env.sort_heap_pages in
  if spilled then begin
    let tdev = Env.temp_dev env in
    let spill = build_pages +. probe_pages in
    Acc.xfer acc tdev (2. *. spill);
    Acc.seek acc tdev (Float.max 2. (2. *. spill /. seq_extent));
    Acc.cpu acc ((build_card +. probe_card) *. Defaults.cpu_row)
  end;
  Acc.cpu acc
    ((build_card *. Defaults.cpu_hash_build)
    +. (probe_card *. Defaults.cpu_hash_probe)
    +. (card *. Defaults.cpu_join_output));
  spilled

let hash_join ctx ~build ~probe =
  let card = Cardinality.of_aliases ctx.est (build.aliases @ probe.aliases) in
  let usage = Space.zero_usage ctx.env.space in
  let spilled =
    hash_join_usage ctx ~build_card:build.card ~build_width:build.width
      ~probe_card:probe.card ~probe_width:probe.width ~card build.usage
      probe.usage ~into:usage
  in
  mk
    (Hash_join { build; probe; spilled })
    ~aliases:(merge_aliases build.aliases probe.aliases)
    ~card ~width:(build.width + probe.width) ~usage ~order:None

let sorted_on node alias col =
  match node.order with
  | Some (a, c) -> a = alias && c = col
  | None -> false

let merge_join_usage ctx ~left_card ~right_card ~card left right ~into =
  let acc = Acc.over ctx.env ~into left in
  Acc.add acc right;
  Acc.cpu acc
    (((left_card +. right_card) *. Defaults.cpu_row)
    +. (card *. Defaults.cpu_join_output))

let merge_join ctx ~left ~right (j : Query.join) =
  let ok =
    (sorted_on left j.left j.left_col && sorted_on right j.right j.right_col)
    || (sorted_on left j.right j.right_col && sorted_on right j.left j.left_col)
  in
  if not ok then None
  else begin
    let card = Cardinality.of_aliases ctx.est (left.aliases @ right.aliases) in
    let usage = Space.zero_usage ctx.env.space in
    merge_join_usage ctx ~left_card:left.card ~right_card:right.card ~card
      left.usage right.usage ~into:usage;
    Some
      (mk
         (Merge_join { left; right })
         ~aliases:(merge_aliases left.aliases right.aliases)
         ~card ~width:(left.width + right.width) ~usage ~order:left.order)
  end

let sort_usage ctx ~card ~width input ~into =
  let env = ctx.env in
  let acc = Acc.over env ~into input in
  let pages = pages_of_rows card width in
  let spilled = pages > env.sort_heap_pages in
  let n = Float.max 2. card in
  Acc.cpu acc (n *. (Float.log n /. Float.log 2.) *. Defaults.cpu_sort_compare);
  if spilled then begin
    let tdev = Env.temp_dev env in
    let runs = Float.round ((pages /. env.sort_heap_pages) +. 0.5) in
    let fanin = 256. in
    let passes =
      Float.max 1. (Float.round ((Float.log runs /. Float.log fanin) +. 0.5))
    in
    Acc.xfer acc tdev (2. *. pages *. passes);
    Acc.seek acc tdev
      (Float.max (2. *. runs *. passes) (2. *. pages *. passes /. seq_extent));
    Acc.cpu acc (passes *. card *. Defaults.cpu_row)
  end;
  spilled

let sort ctx ~key input =
  let usage = Space.zero_usage ctx.env.space in
  let spilled =
    sort_usage ctx ~card:input.card ~width:input.width input.usage ~into:usage
  in
  mk
    (Sort { input; key; spilled })
    ~aliases:input.aliases ~card:input.card ~width:input.width ~usage
    ~order:key

(* The input is already sorted when [hash] is false. *)
let group_agg_usage ctx ~hash ~groups ~card ~width input ~into =
  let env = ctx.env in
  let acc = Acc.over env ~into input in
  let spilled = hash && pages_of_rows groups width > env.sort_heap_pages in
  if spilled then begin
    let tdev = Env.temp_dev env in
    let pages = pages_of_rows card width in
    Acc.xfer acc tdev (2. *. pages);
    Acc.seek acc tdev (Float.max 2. (2. *. pages /. seq_extent))
  end;
  Acc.cpu acc (card *. Defaults.cpu_agg_row);
  spilled

let group_agg ctx ~hash ~groups input =
  let input = if hash then input else sort ctx ~key:None input in
  let usage = Space.zero_usage ctx.env.space in
  let spilled =
    group_agg_usage ctx ~hash ~groups ~card:input.card ~width:input.width
      input.usage ~into:usage
  in
  mk
    (Group_agg { input; hash; spilled })
    ~aliases:input.aliases ~card:groups ~width:input.width ~usage ~order:None

let finalize_variants ctx node =
  let grouped =
    let agg groups = [ group_agg ctx ~hash:true ~groups node;
                       group_agg ctx ~hash:false ~groups node ] in
    match ctx.query.group_by with
    | Some groups -> agg groups
    | None ->
        if ctx.query.distinct then agg (Float.max 1. (node.card /. 2.))
        else [ node ]
  in
  if ctx.query.order_by then List.map (sort ctx ~key:None) grouped else grouped

let finalize ctx node =
  let node =
    match ctx.query.group_by with
    | Some groups -> group_agg ctx ~hash:true ~groups node
    | None ->
        if ctx.query.distinct then
          group_agg ctx ~hash:true ~groups:(Float.max 1. (node.card /. 2.)) node
        else node
  in
  if ctx.query.order_by then sort ctx ~key:None node else node

let local_usage ctx node =
  let zero = Space.zero_usage ctx.env.space in
  let into = Space.zero_usage ctx.env.space in
  (match node.op with
  | Access _ -> Array.blit node.usage 0 into 0 (Array.length into)
  | Block_nlj { outer; inner; _ } ->
      block_nlj_usage ctx ~outer_card:outer.card ~outer_width:outer.width
        ~inner_card:inner.card ~card:node.card zero zero ~into
  | Index_nlj { outer; inner_alias; index; join; index_only } ->
      index_nlj_usage ctx ~outer_card:outer.card ~inner_alias index join
        ~index_only ~card:node.card zero ~into
  | Hash_join { build; probe; _ } ->
      ignore
        (hash_join_usage ctx ~build_card:build.card ~build_width:build.width
           ~probe_card:probe.card ~probe_width:probe.width ~card:node.card zero
           zero ~into
          : bool)
  | Merge_join { left; right } ->
      merge_join_usage ctx ~left_card:left.card ~right_card:right.card
        ~card:node.card zero zero ~into
  | Sort { input; _ } ->
      ignore (sort_usage ctx ~card:input.card ~width:input.width zero ~into : bool)
  | Group_agg { input; hash; _ } ->
      ignore
        (group_agg_usage ctx ~hash ~groups:node.card ~card:input.card
           ~width:input.width zero ~into
          : bool));
  into

let cost p c = Vec.dot p.usage c

let rec signature p =
  match p.op with
  | Access { alias; kind = Table_scan } -> Printf.sprintf "TS(%s)" alias
  | Access { alias; kind = Index_range { index; match_sel; index_only } } ->
      Printf.sprintf "IXS(%s.%s%s%s)" alias index.Index.name
        (if match_sel < 1. then ":m" else "")
        (if index_only then ":io" else "")
  | Block_nlj { outer; inner; _ } ->
      Printf.sprintf "BNLJ(%s,%s)" (signature outer) (signature inner)
  | Index_nlj { outer; inner_alias; index; index_only; _ } ->
      Printf.sprintf "INLJ(%s,%s.%s%s)" (signature outer) inner_alias
        index.Index.name
        (if index_only then ":io" else "")
  | Hash_join { build; probe; spilled } ->
      Printf.sprintf "HSJ%s(%s,%s)"
        (if spilled then ":sp" else "")
        (signature build) (signature probe)
  | Merge_join { left; right } ->
      Printf.sprintf "MGJ(%s,%s)" (signature left) (signature right)
  | Sort { input; spilled; _ } ->
      Printf.sprintf "SORT%s(%s)" (if spilled then ":sp" else "") (signature input)
  | Group_agg { input; hash; spilled } ->
      Printf.sprintf "GRP:%s%s(%s)"
        (if hash then "h" else "s")
        (if spilled then ":sp" else "")
        (signature input)

let pp_explain ppf p =
  let rec go indent p =
    let pad = String.make indent ' ' in
    let line fmt = Format.fprintf ppf ("%s" ^^ fmt ^^ "  [rows=%.3g]@,") pad in
    match p.op with
    | Access { alias; kind = Table_scan } -> line "TBSCAN %s" alias p.card
    | Access { alias; kind = Index_range { index; match_sel; index_only } } ->
        line "IXSCAN %s via %s (sel=%.3g%s)" alias index.Index.name match_sel
          (if index_only then ", index-only" else "")
          p.card
    | Block_nlj { outer; inner; rescans } ->
        line "NLJOIN (block, %.0f rescans)" rescans p.card;
        go (indent + 2) outer;
        go (indent + 2) inner
    | Index_nlj { outer; inner_alias; index; index_only; _ } ->
        line "NLJOIN (index probe %s.%s%s)" inner_alias index.Index.name
          (if index_only then ", index-only" else "")
          p.card;
        go (indent + 2) outer
    | Hash_join { build; probe; spilled } ->
        line "HSJOIN%s" (if spilled then " (spilled)" else "") p.card;
        go (indent + 2) build;
        go (indent + 2) probe
    | Merge_join { left; right } ->
        line "MSJOIN" p.card;
        go (indent + 2) left;
        go (indent + 2) right
    | Sort { input; spilled; _ } ->
        line "SORT%s" (if spilled then " (external)" else "") p.card;
        go (indent + 2) input
    | Group_agg { input; hash; spilled } ->
        line "GRPBY (%s%s)"
          (if hash then "hash" else "sort")
          (if spilled then ", spilled" else "")
          p.card;
        go (indent + 2) input
  in
  Format.fprintf ppf "@[<v>";
  go 0 p;
  Format.fprintf ppf "@]"
