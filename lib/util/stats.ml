type t = {
  mutable n : int;
  mutable mean_acc : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sum : float;
}

let create () =
  { n = 0; mean_acc = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity; sum = 0. }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean_acc in
  t.mean_acc <- t.mean_acc +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean_acc));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean_acc
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min t = t.min_v
let max t = t.max_v
let total t = t.sum

let confidence95 t =
  if t.n < 2 then 0. else 1.96 *. stddev t /. sqrt (float_of_int t.n)

let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0. || p > 1. then invalid_arg "Stats.percentile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let loglog_slope points =
  let usable =
    List.map
      (fun (x, y) ->
        if x <= 0. || y <= 0. then
          invalid_arg "Stats.loglog_slope: coordinates must be positive"
        else (log x, log y))
      points
  in
  let n = List.length usable in
  if n < 2 then invalid_arg "Stats.loglog_slope: need at least two points";
  (* All-equal x must be rejected up front: the summed denominator below
     can round to a tiny nonzero value and yield a garbage slope. *)
  (match usable with
  | (x0, _) :: rest when List.for_all (fun (x, _) -> Float.equal x x0) rest ->
      invalid_arg "Stats.loglog_slope: degenerate x values"
  | _ -> ());
  let nf = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. usable in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. usable in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. usable in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. usable in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if Float.equal denom 0. then invalid_arg "Stats.loglog_slope: degenerate x values";
  ((nf *. sxy) -. (sx *. sy)) /. denom
