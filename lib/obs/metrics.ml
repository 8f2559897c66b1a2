(* Two ways in, one way out.

   Push: a component resolves a handle once ([counter]/[gauge]/[histogram])
   and mutates it on its hot path — an increment is one unboxed store, no
   hashing, no option check. Pull: a component that already keeps its own
   plain counters registers a [source] closure and is read only when a
   snapshot is built, so its hot path is untouched. Both land in the same
   snapshot. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  uppers : float array; (* strictly increasing bucket upper bounds *)
  counts : int array; (* length uppers + 1; last is the overflow bucket *)
  mutable h_count : int;
  mutable h_sum : float;
}

type source_value = Count of string * int | Gauge of string * float

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable sources : (unit -> source_value list) list;
  mutable phases_rev : Profiling.phase list;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 8;
    sources = [];
    phases_rev = [];
  }

let unregistered_counter name = { c_name = name; c_value = 0 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = unregistered_counter name in
      Hashtbl.add t.counters name c;
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value
let counter_name c = c.c_name

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0. } in
      Hashtbl.add t.gauges name g;
      g

let set_gauge g v = g.g_value <- v
let max_gauge g v = if v > g.g_value then g.g_value <- v
let gauge_value g = g.g_value

(* Power-of-two-ish spread from 100us to ~100s: wide enough for simulated
   message latencies under any delay model in the tree. A fresh array per
   call — a shared module-level array would be mutable state visible to
   every domain that opens a histogram. *)
let default_latency_buckets () =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.; 3.; 10.; 30.; 100. |]

let histogram ?(buckets = default_latency_buckets ()) t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let n = Array.length buckets in
      if n = 0 then invalid_arg "Metrics.histogram: no buckets";
      for i = 1 to n - 1 do
        if buckets.(i) <= buckets.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must increase strictly"
      done;
      let h =
        {
          h_name = name;
          uppers = Array.copy buckets;
          counts = Array.make (n + 1) 0;
          h_count = 0;
          h_sum = 0.;
        }
      in
      Hashtbl.add t.histograms name h;
      h

let observe h x =
  let n = Array.length h.uppers in
  let rec slot i = if i >= n || x <= h.uppers.(i) then i else slot (i + 1) in
  h.counts.(slot 0) <- h.counts.(slot 0) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x

let register_source t f = t.sources <- f :: t.sources
let record_phase t p = t.phases_rev <- p :: t.phases_rev

(* --- snapshots --- *)

type histogram_snapshot = {
  hs_uppers : float array;
  hs_counts : int array;
  hs_count : int;
  hs_sum : float;
}

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * histogram_snapshot) list;
  s_phases : Profiling.phase list;
  s_warnings_total : int;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot t =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let gauges : (string, float) Hashtbl.t = Hashtbl.create 16 in
  (* Both iters copy into scratch tables keyed by name, so visit order
     cannot leak into the snapshot; emission sorts with [by_name] below. *)
  (Hashtbl.iter (fun name c -> Hashtbl.replace counts name c.c_value)
     t.counters [@lint.allow "D2"]);
  (Hashtbl.iter (fun name g -> Hashtbl.replace gauges name g.g_value)
     t.gauges [@lint.allow "D2"]);
  (* Sources registered first run first; same-name counters accumulate
     (several lock tables report into one [lock_waits]), gauges take the
     maximum (the interesting high-water across components). *)
  List.iter
    (fun source ->
      List.iter
        (function
          | Count (name, n) ->
              let old =
                match Hashtbl.find_opt counts name with Some v -> v | None -> 0
              in
              Hashtbl.replace counts name (old + n)
          | Gauge (name, v) ->
              let keep =
                match Hashtbl.find_opt gauges name with
                | Some old -> Float.max old v
                | None -> v
              in
              Hashtbl.replace gauges name keep)
        (source ()))
    (List.rev t.sources);
  let assoc tbl = List.sort by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  {
    s_counters = assoc counts;
    s_gauges = assoc gauges;
    s_histograms =
      List.sort by_name
        (Hashtbl.fold
           (fun name h acc ->
             ( name,
               {
                 hs_uppers = Array.copy h.uppers;
                 hs_counts = Array.copy h.counts;
                 hs_count = h.h_count;
                 hs_sum = h.h_sum;
               } )
             :: acc)
           t.histograms []);
    s_phases = List.rev t.phases_rev;
    s_warnings_total = Warnings.total ();
  }

let histogram_quantile hs ~q =
  if hs.hs_count = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let target = q *. float_of_int hs.hs_count in
    let n = Array.length hs.hs_uppers in
    let rec walk i cum =
      if i >= n then hs.hs_uppers.(n - 1) (* overflow: clamp to the last bound *)
      else
        let here = hs.hs_counts.(i) in
        let cum' = cum + here in
        if float_of_int cum' >= target || i = n - 1 && hs.hs_counts.(n) = 0 then begin
          let lower = if i = 0 then 0. else hs.hs_uppers.(i - 1) in
          let upper = hs.hs_uppers.(i) in
          if here = 0 then upper
          else
            let into = (target -. float_of_int cum) /. float_of_int here in
            lower +. (Float.min 1. (Float.max 0. into) *. (upper -. lower))
        end
        else walk (i + 1) cum'
    in
    walk 0 0
  end

let snapshot_counter s name = List.assoc_opt name s.s_counters
let snapshot_gauge s name = List.assoc_opt name s.s_gauges
let snapshot_histogram s name = List.assoc_opt name s.s_histograms

let schema_id = "dangers/metrics/v1"

let histogram_to_json hs =
  Json.Obj
    [
      ("uppers", Json.Arr (Array.to_list (Array.map Json.of_float hs.hs_uppers)));
      ("counts", Json.Arr (Array.to_list (Array.map Json.int_ hs.hs_counts)));
      ("count", Json.int_ hs.hs_count);
      ("sum", Json.of_float hs.hs_sum);
    ]

let snapshot_to_json s =
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.int_ v)) s.s_counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.of_float v)) s.s_gauges));
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, histogram_to_json h)) s.s_histograms) );
      ("phases", Json.Arr (List.map Profiling.to_json s.s_phases));
      ("warnings_total", Json.int_ s.s_warnings_total);
    ]

let histogram_of_json j =
  {
    hs_uppers =
      Array.of_list (List.map Json.to_float (Json.list_of (Json.member "uppers" j)));
    hs_counts =
      Array.of_list (List.map Json.int_of (Json.list_of (Json.member "counts" j)));
    hs_count = Json.int_of (Json.member "count" j);
    hs_sum = Json.to_float (Json.member "sum" j);
  }

let fields_of = function
  | Json.Obj fields -> fields
  | j -> Json.parse_error "expected an object, got %s" (Json.to_string j)

let snapshot_of_json j =
  (match Json.member "schema" j with
  | Json.Str s when String.equal s schema_id -> ()
  | Json.Str s -> Json.parse_error "unsupported metrics schema %S" s
  | _ -> Json.parse_error "metrics schema is not a string");
  {
    s_counters =
      List.map (fun (k, v) -> (k, Json.int_of v)) (fields_of (Json.member "counters" j));
    s_gauges =
      List.map (fun (k, v) -> (k, Json.to_float v)) (fields_of (Json.member "gauges" j));
    s_histograms =
      List.map
        (fun (k, v) -> (k, histogram_of_json v))
        (fields_of (Json.member "histograms" j));
    s_phases = List.map Profiling.of_json (Json.list_of (Json.member "phases" j));
    s_warnings_total = Json.int_of (Json.member "warnings_total" j);
  }

let pp_snapshot ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%s: %d@ " k v) s.s_counters;
  List.iter (fun (k, v) -> Format.fprintf ppf "%s: %g@ " k v) s.s_gauges;
  List.iter
    (fun (k, h) ->
      Format.fprintf ppf "%s: n=%d sum=%g mean=%g@ " k h.hs_count h.hs_sum
        (if h.hs_count = 0 then 0. else h.hs_sum /. float_of_int h.hs_count))
    s.s_histograms;
  List.iter (fun p -> Format.fprintf ppf "%a@ " Profiling.pp p) s.s_phases;
  Format.fprintf ppf "warnings_total: %d@]" s.s_warnings_total
