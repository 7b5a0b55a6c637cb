open Qsens_catalog

type t = {
  schema : Schema.t;
  query : Query.t;
  bits : (string, int) Hashtbl.t;  (** alias -> its bit in a cache key *)
  cache : (int, float) Hashtbl.t;  (** alias-set bit mask -> estimate *)
}

let make schema query =
  if List.length query.Query.relations > Sys.int_size then
    invalid_arg "Cardinality.make: more relations than bits in an int";
  let bits = Hashtbl.create 16 in
  List.iteri
    (fun i (r : Query.relation) -> Hashtbl.replace bits r.alias (1 lsl i))
    query.Query.relations;
  { schema; query; bits; cache = Hashtbl.create 64 }

let base_rows t alias =
  let r = Query.relation t.query alias in
  (Schema.table t.schema r.table).Table.rows

let base t alias =
  let r = Query.relation t.query alias in
  base_rows t alias *. Query.local_selectivity r

let column_ndv t alias col =
  let r = Query.relation t.query alias in
  (Table.column (Schema.table t.schema r.table) col).Column.ndv

let join_selectivity t (j : Query.join) =
  match j.selectivity with
  | Some s -> s
  | None ->
      let ndv_l = column_ndv t j.left j.left_col in
      let ndv_r = column_ndv t j.right j.right_col in
      1. /. Float.max 1. (Float.max ndv_l ndv_r)

(* The cache is keyed by alias set; the estimate is the product in the
   order of the first call for that set. *)
let rec of_aliases t aliases =
  let key = List.fold_left (fun m a -> m lor Hashtbl.find t.bits a) 0 aliases in
  match Hashtbl.find_opt t.cache key with
  | Some card -> card
  | None ->
      let card = compute t aliases in
      Hashtbl.add t.cache key card;
      card

and compute t aliases =
  let inside a = List.exists (String.equal a) aliases in
  let internal_edges =
    List.filter (fun (j : Query.join) -> inside j.left && inside j.right)
      t.query.joins
  in
  let rows =
    List.fold_left (fun acc a -> acc *. base t a) 1. aliases
  in
  List.fold_left
    (fun acc j -> acc *. join_selectivity t j)
    rows internal_edges

let matches_per_probe t ~inner j =
  base_rows t inner *. join_selectivity t j
