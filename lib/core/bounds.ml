open Qsens_linalg

let theorem1 ~delta ~gamma =
  if delta < 1. then invalid_arg "Bounds.theorem1: delta must be >= 1";
  (gamma /. (delta *. delta), gamma *. (delta *. delta))

let effective_zero eps v = eps *. Float.max 1e-300 (Vec.norm_inf v)

let within_theorem1 ~delta gtc =
  gtc >= 1. && gtc <= delta *. delta *. (1. +. 1e-9)

let complementary_dims ?(eps = 1e-9) a b =
  if Vec.dim a <> Vec.dim b then
    invalid_arg "Bounds.complementary_dims: dimension mismatch";
  let za = effective_zero eps a and zb = effective_zero eps b in
  let dims = ref [] in
  for i = Vec.dim a - 1 downto 0 do
    let a0 = a.(i) <= za and b0 = b.(i) <= zb in
    if (a0 && not b0) || ((not a0) && b0) then dims := i :: !dims
  done;
  !dims

let complementary ?eps a b = complementary_dims ?eps a b <> []

let ratio_range ?(eps = 1e-9) a b =
  if complementary ~eps a b then None
  else begin
    let za = effective_zero eps a and zb = effective_zero eps b in
    let r_min = ref infinity and r_max = ref neg_infinity in
    Array.iteri
      (fun i ai ->
        let a0 = ai <= za and b0 = b.(i) <= zb in
        if not (a0 && b0) then begin
          let r = ai /. b.(i) in
          if r < !r_min then r_min := r;
          if r > !r_max then r_max := r
        end)
      a;
    if Float.equal !r_max neg_infinity then Some (1., 1.)
      (* both plans all-zero *)
    else Some (!r_min, !r_max)
  end

let max_element_ratio ?eps a b =
  match ratio_range ?eps a b with
  | None -> infinity
  | Some (r_min, r_max) ->
      Float.max r_max (if Float.equal r_min 0. then infinity else 1. /. r_min)

let theorem2_bound plans =
  let n = Array.length plans in
  let worst = ref 1. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let r = max_element_ratio plans.(i) plans.(j) in
      if r > !worst then worst := r
    done
  done;
  !worst
