(* Order statistics over samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolation quantile of sorted samples, [q] in [0, 1]. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile_sorted (sorted a) 0.5
let median_l l = median (Array.of_list l)
