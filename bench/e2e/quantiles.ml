(* Order statistics for aggregating repetitions.

   [quartiles] follows Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) exactly, so the spread printed here is the
   spread anyone re-deriving it from the result files with Python gets. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Quantiles.median: no values"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Quantiles.quartiles: no values"
  | [| x |] -> (x, x, x)
  | a ->
      let len = Array.length a in
      let m = len + 1 in
      let cut i =
        let j = max 1 (min (len - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (cut 1, cut 2, cut 3)

let spread xs =
  let q1, _, q3 = quartiles xs in
  let mid = median xs in
  if Float.equal mid 0. then 0. else (q3 -. q1) /. Float.abs mid

let percentile xs ~p = Dangers_util.Stats.percentile (Array.of_list xs) ~p
