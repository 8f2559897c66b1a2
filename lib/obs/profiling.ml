type phase = {
  phase : string;
  wall_seconds : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

(* [Gc.quick_stat] only folds the minor allocation pointer in at collection
   points, so a phase that never triggers a minor GC would report zero;
   [Gc.minor_words] reads the live pointer and stays accurate. *)
let timed name f =
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  ( result,
    {
      phase = name;
      wall_seconds = t1 -. t0;
      minor_words = m1 -. m0;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    } )

(* Allocation attributed to the mutator: minor plus major, minus the
   promoted words counted by both. *)
let allocated_words p = p.minor_words +. p.major_words -. p.promoted_words

let to_json p =
  Json.Obj
    [
      ("phase", Json.Str p.phase);
      ("wall_seconds", Json.of_float p.wall_seconds);
      ("minor_words", Json.of_float p.minor_words);
      ("major_words", Json.of_float p.major_words);
      ("promoted_words", Json.of_float p.promoted_words);
    ]

let of_json j =
  {
    phase = Json.string_of (Json.member "phase" j);
    wall_seconds = Json.to_float (Json.member "wall_seconds" j);
    minor_words = Json.to_float (Json.member "minor_words" j);
    major_words = Json.to_float (Json.member "major_words" j);
    promoted_words = Json.to_float (Json.member "promoted_words" j);
  }
