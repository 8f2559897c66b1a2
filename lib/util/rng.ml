(* SplitMix64: a 64-bit state advanced by a Weyl sequence and finalized by a
   variant of the MurmurHash3 mixer. Passes BigCrush; splitting is done by
   drawing a fresh gamma from a secondary mix, per Steele-Lea-Flood. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let popcount64 x =
  let rec loop x acc =
    if x = 0L then acc
    else loop (Int64.logand x (Int64.sub x 1L)) (acc + 1)
  in
  loop x 0

(* Gamma values must be odd; weak gammas (too few 01/10 bit transitions) are
   repaired as in the reference implementation. *)
let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  let z = Int64.logor z 1L in
  let transitions = popcount64 (Int64.logxor z (Int64.shift_right_logical z 1)) in
  if transitions < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let create ~seed =
  let s = mix64 (Int64.of_int seed) in
  { state = s; gamma = golden_gamma }

let next_seed t =
  t.state <- Int64.add t.state t.gamma;
  t.state

let bits64 t = mix64 (next_seed t)

let split t =
  let state' = mix64 (next_seed t) in
  let gamma' = mix_gamma (next_seed t) in
  { state = state'; gamma = gamma' }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the high bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let value = Int64.rem bits bound64 in
    if Int64.(sub (add bits (sub bound64 1L)) value) < 0L then draw ()
    else Int64.to_int value
  in
  draw ()

let float t bound =
  if not (bound > 0. && Float.is_finite bound) then
    invalid_arg "Rng.float: bound must be finite and positive";
  (* 53 uniform mantissa bits in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float bits *. 0x1.0p-53 in
  unit *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if not (mean > 0.) then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let poisson t ~mean =
  if not (mean >= 0.) then invalid_arg "Rng.poisson: mean must be >= 0";
  if Float.equal mean 0. then 0
  else if mean < 30. then begin
    (* Knuth: multiply uniforms until the product drops below e^-mean. *)
    let limit = exp (-.mean) in
    let rec loop k product =
      let product = product *. float t 1.0 in
      if product <= limit then k else loop (k + 1) product
    in
    loop 0 1.0
  end
  else begin
    (* Normal approximation with continuity correction, adequate for the
       arrival counts we need. *)
    let u1 = 1.0 -. float t 1.0 and u2 = float t 1.0 in
    let gauss = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    let value = mean +. (sqrt mean *. gauss) in
    if value < 0. then 0 else int_of_float (value +. 0.5)
  end

module Zipf = struct
  type rng = t

  (* [zeta2] and [zetan] are the normalisers over the first 2 and all [n]
     ranks; [alpha] and [eta] are the inverse-CDF constants. *)
  type t =
    | Uniform of int
    | Skewed of {
        n : int; nf : float; zeta2 : float; zetan : float; alpha : float; eta : float;
      }

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Rng.Zipf.create: n must be positive";
    if not (theta >= 0.) then invalid_arg "Rng.Zipf.create: theta must be >= 0";
    if Float.equal theta 1. then invalid_arg "Rng.Zipf.create: theta must not be 1";
    if Float.equal theta 0. then Uniform n
    else begin
      (* Closed-form inverse of the approximate Zipf CDF (Gray et al. '94);
         the left-to-right sum fixes every bit of [zetan]. *)
      let nf = float_of_int n in
      let zeta2 = 1.0 +. (0.5 ** theta) in
      let zetan =
        let rec sum i acc =
          if i > n then acc else sum (i + 1) (acc +. (1.0 /. (float_of_int i ** theta)))
        in
        sum 1 0.0
      in
      let alpha = 1.0 /. (1.0 -. theta) in
      let eta =
        (1.0 -. ((2.0 /. nf) ** (1.0 -. theta))) /. (1.0 -. (zeta2 /. zetan))
      in
      Skewed { n; nf; zeta2; zetan; alpha; eta }
    end

  let draw z (rng : rng) =
    match z with
    | Uniform n -> int rng n
    | Skewed { n; nf; zeta2; zetan; alpha; eta } ->
        let u = float rng 1.0 in
        let uz = u *. zetan in
        if uz < 1.0 then 0
        else if uz < zeta2 then 1
        else
          let rank = int_of_float (nf *. ((eta *. u -. eta +. 1.0) ** alpha)) in
          if rank >= n then n - 1 else rank
end

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let sample_without_replacement t ~n ~k =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected time, no O(n) allocation. *)
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  for j = n - k to n - 1 do
    let candidate = int t (j + 1) in
    let slot = j - (n - k) in
    if Hashtbl.mem seen candidate then begin
      Hashtbl.replace seen j ();
      out.(slot) <- j
    end
    else begin
      Hashtbl.replace seen candidate ();
      out.(slot) <- candidate
    end
  done;
  out

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
