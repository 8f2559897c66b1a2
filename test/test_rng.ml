(* Unit and property tests for Dangers_util.Rng. *)

module Rng = Dangers_util.Rng

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  checkb "different seeds diverge" true !differs

let test_split_independence () =
  (* Splitting must not change what the parent would have produced had the
     split's own draw not happened; and child streams differ from parent. *)
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let differs = ref false in
  for _ = 1 to 20 do
    if not (Int64.equal (Rng.bits64 parent) (Rng.bits64 child)) then
      differs := true
  done;
  checkb "child differs from parent" true !differs

let test_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    checkb "in [0,17)" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_range () =
  let rng = Rng.create ~seed:5 in
  let seen = Array.make 8 false in
  for _ = 1 to 2000 do
    seen.(Rng.int rng 8) <- true
  done;
  checkb "all residues reachable" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    checkb "in [0,2.5)" true (x >= 0. && x < 2.5)
  done

let test_float_mean () =
  let rng = Rng.create ~seed:13 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_exponential_mean () =
  let rng = Rng.create ~seed:17 in
  let n = 20_000 and mean = 4.0 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean
  done;
  let observed = !sum /. float_of_int n in
  checkb "exponential mean within 5%" true (Float.abs (observed -. mean) /. mean < 0.05)

let test_poisson_mean () =
  let rng = Rng.create ~seed:19 in
  let test mean =
    let n = 10_000 in
    let sum = ref 0 in
    for _ = 1 to n do
      sum := !sum + Rng.poisson rng ~mean
    done;
    let observed = float_of_int !sum /. float_of_int n in
    checkb
      (Printf.sprintf "poisson mean %g within 5%%" mean)
      true
      (Float.abs (observed -. mean) /. mean < 0.05)
  in
  test 3.0;
  test 50.0

(* The per-draw closed form the sampler replaced: it recomputes every
   constant, zeta(n) included, on each call. Kept as the reference that
   [Rng.Zipf] must match draw for draw. *)
let reference_zipf t ~n ~theta =
  if Float.equal theta 0. then Rng.int t n
  else begin
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
    let u = Rng.float t 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < zeta2 then 1
    else
      let rank = int_of_float (nf *. ((eta *. u -. eta +. 1.0) ** alpha)) in
      if rank >= n then n - 1 else rank
  end

let test_zipf_matches_reference () =
  List.iter
    (fun n ->
      List.iter
        (fun theta ->
          let label = Printf.sprintf "n=%d theta=%g" n theta in
          let zipf = Rng.Zipf.create ~n ~theta in
          let rng = Rng.create ~seed:23 and twin = Rng.create ~seed:23 in
          let counts = Array.make n 0 in
          for _ = 1 to 2000 do
            let x = Rng.Zipf.draw zipf rng in
            check Alcotest.int label (reference_zipf twin ~n ~theta) x;
            checkb "in range" true (x >= 0 && x < n);
            counts.(x) <- counts.(x) + 1
          done;
          check Alcotest.int64 (label ^ ": one value per draw") (Rng.bits64 twin)
            (Rng.bits64 rng);
          if n = 100 && theta > 0. then
            checkb (label ^ ": rank 0 hotter than rank 50") true
              (counts.(0) > counts.(50)))
        [ 0.; 0.5; 0.9; 1.2 ])
    [ 1; 2; 100; 1000 ];
  Alcotest.check_raises "theta 1 rejected"
    (Invalid_argument "Rng.Zipf.create: theta must not be 1") (fun () ->
      ignore (Rng.Zipf.create ~n:10 ~theta:1.0))

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:29 in
  for _ = 1 to 200 do
    let sample = Rng.sample_without_replacement rng ~n:20 ~k:10 in
    check Alcotest.int "k elements" 10 (Array.length sample);
    let sorted = Array.copy sample in
    Array.sort compare sorted;
    for i = 0 to 8 do
      checkb "distinct" true (sorted.(i) <> sorted.(i + 1))
    done;
    Array.iter (fun x -> checkb "in range" true (x >= 0 && x < 20)) sample
  done

let test_sample_full () =
  let rng = Rng.create ~seed:31 in
  let sample = Rng.sample_without_replacement rng ~n:5 ~k:5 in
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" [| 0; 1; 2; 3; 4 |] sorted

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:37 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"rng: int always within bound" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed in
        let x = Rng.int rng bound in
        x >= 0 && x < bound);
    Test.make ~name:"rng: sample_without_replacement distinct" ~count:200
      (pair small_int (int_range 1 50))
      (fun (seed, k) ->
        let rng = Rng.create ~seed in
        let sample = Rng.sample_without_replacement rng ~n:60 ~k in
        let module Int_set = Set.Make (Int) in
        Int_set.cardinal (Int_set.of_list (Array.to_list sample)) = k);
  ]

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
    Alcotest.test_case "zipf matches per-draw formula" `Quick test_zipf_matches_reference;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample full permutation" `Quick test_sample_full;
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
