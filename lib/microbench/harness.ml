(* Criterion-style measurement core: warm up, then time [samples] batches
   of [runs] calls each on the monotonic clock, and summarize the per-run
   times. Nothing here is statistical rocket science — the point is a
   stable, dependency-light way to see where simulator time goes and to
   catch regressions in CI. *)

type bench = {
  name : string;
  warmup : int;
  samples : int;
  runs : int;
  f : unit -> unit;
}

let bench ?(warmup = 3) ?(samples = 10) ?(runs = 1) name f =
  if warmup < 0 then invalid_arg "Harness.bench: negative warmup";
  if samples < 1 then invalid_arg "Harness.bench: need at least one sample";
  if runs < 1 then invalid_arg "Harness.bench: need at least one run";
  { name; warmup; samples; runs; f }

let name b = b.name

type stats = {
  s_name : string;
  s_warmup : int;
  s_samples : int;
  s_runs : int;
  mean : float;  (** ns per run *)
  stddev : float;
  p50 : float;
  p99 : float;
  min : float;
  max : float;
  words : float option;
}

(* One timed batch: ns and minor words per run, averaged over [runs]
   back-to-back calls so sub-microsecond benches are not swamped by clock
   granularity. The word count is read inside the clock reads, whose
   boxed results it would otherwise include; [Gc.minor_words] itself
   returns an unboxed float and allocates nothing. *)
let time_batch f runs =
  let t0 = Monotonic_clock.now () in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  let w1 = Gc.minor_words () in
  let t1 = Monotonic_clock.now () in
  let per_run x = x /. float_of_int runs in
  (per_run (Int64.to_float (Int64.sub t1 t0)), per_run (w1 -. w0))

let of_samples ~name ~warmup ~runs xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Harness.of_samples: no samples";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let mean = Array.fold_left ( +. ) 0. sorted /. float_of_int n in
  let stddev =
    if n < 2 then 0.
    else
      let sq = Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. sorted in
      sqrt (sq /. float_of_int (n - 1))
  in
  {
    s_name = name;
    s_warmup = warmup;
    s_samples = n;
    s_runs = runs;
    mean;
    stddev;
    p50 = Dangers_util.Stats.percentile sorted ~p:0.5;
    p99 = Dangers_util.Stats.percentile sorted ~p:0.99;
    min = sorted.(0);
    max = sorted.(n - 1);
    words = None;
  }

let run b =
  for _ = 1 to b.warmup do
    ignore (time_batch b.f b.runs)
  done;
  let batches = Array.init b.samples (fun _ -> time_batch b.f b.runs) in
  let words =
    Array.fold_left (fun sum (_, w) -> sum +. w) 0. batches
    /. float_of_int b.samples
  in
  {
    (of_samples ~name:b.name ~warmup:b.warmup ~runs:b.runs
       (Array.map fst batches))
    with
    words = Some words;
  }

let pp_stats ppf s =
  let scale v =
    if v >= 1e9 then Printf.sprintf "%.3fs" (v /. 1e9)
    else if v >= 1e6 then Printf.sprintf "%.3fms" (v /. 1e6)
    else if v >= 1e3 then Printf.sprintf "%.3fus" (v /. 1e3)
    else Printf.sprintf "%.0fns" v
  in
  Format.fprintf ppf "%-28s mean %10s  +/-%9s  p50 %10s  p99 %10s" s.s_name
    (scale s.mean) (scale s.stddev) (scale s.p50) (scale s.p99);
  Option.iter (Format.fprintf ppf "  %10.0f words") s.words
