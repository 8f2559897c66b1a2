let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize_metric_name name =
  if name = "" then "_"
  else begin
    let out =
      String.map (fun c -> if is_name_char c then c else '_') name
    in
    match out.[0] with '0' .. '9' -> "_" ^ out | _ -> out
  end

let escape ~quote s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label_value = escape ~quote:true
let escape_help = escape ~quote:false

let float_repr x =
  if Float.is_nan x then "NaN"
  else if Float.equal x Float.infinity then "+Inf"
  else if Float.equal x Float.neg_infinity then "-Inf"
  else Json.float_repr x

(* Sanitisation can merge distinct registry names; suffix later comers so
   every family stays unique. Input lists are sorted, so the assignment is
   deterministic. *)
let uniquifier () =
  let used : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  fun name ->
    let base = sanitize_metric_name name in
    let rec pick candidate i =
      if Hashtbl.mem used candidate then pick (Printf.sprintf "%s_%d" base i) (i + 1)
      else candidate
    in
    let picked = pick base 2 in
    Hashtbl.replace used picked ();
    picked

let of_snapshot (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  let unique = uniquifier () in
  let family name kind emit =
    let name = unique name in
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
    emit name
  in
  let sample name value = Buffer.add_string buf (name ^ " " ^ value ^ "\n") in
  List.iter
    (fun (name, v) ->
      family name "counter" (fun name -> sample name (string_of_int v)))
    s.Metrics.s_counters;
  List.iter
    (fun (name, v) ->
      family name "gauge" (fun name -> sample name (float_repr v)))
    s.Metrics.s_gauges;
  List.iter
    (fun (name, (h : Metrics.histogram_snapshot)) ->
      family name "histogram" (fun name ->
          let cumulative = ref 0 in
          Array.iteri
            (fun i upper ->
              cumulative := !cumulative + h.Metrics.hs_counts.(i);
              sample
                (Printf.sprintf "%s_bucket{le=\"%s\"}" name
                   (escape_label_value (float_repr upper)))
                (string_of_int !cumulative))
            h.Metrics.hs_uppers;
          sample
            (Printf.sprintf "%s_bucket{le=\"+Inf\"}" name)
            (string_of_int h.Metrics.hs_count);
          sample (name ^ "_sum") (float_repr h.Metrics.hs_sum);
          sample (name ^ "_count") (string_of_int h.Metrics.hs_count)))
    s.Metrics.s_histograms;
  family "warnings_total" "counter" (fun name ->
      sample name (string_of_int s.Metrics.s_warnings_total));
  Buffer.contents buf

(* --- format check --- *)

type lint_state = {
  types : (string, string) Hashtbl.t; (* family -> declared type *)
  buckets : (string, int) Hashtbl.t; (* histogram family -> last cumulative *)
  inf_buckets : (string, int) Hashtbl.t; (* histogram family -> +Inf value *)
  mutable samples : int;
}

exception Bad of string

let valid_name name =
  name <> ""
  && (match name.[0] with '0' .. '9' -> false | _ -> true)
  && String.for_all is_name_char name

let parse_value text =
  match text with
  | "+Inf" -> Float.infinity
  | "-Inf" -> Float.neg_infinity
  | "NaN" -> Float.nan
  | _ -> (
      match float_of_string_opt text with
      | Some v -> v
      | None -> raise (Bad (Printf.sprintf "unparsable value %S" text)))

let strip_suffix name suffix =
  let n = String.length name and k = String.length suffix in
  if n > k && String.sub name (n - k) k = suffix then
    Some (String.sub name 0 (n - k))
  else None

let lint_sample state ~name ~labels ~value =
  if not (valid_name name) then
    raise (Bad (Printf.sprintf "invalid metric name %S" name));
  state.samples <- state.samples + 1;
  match strip_suffix name "_bucket" with
  | Some base when Hashtbl.find_opt state.types base = Some "histogram" ->
      let le =
        match labels with
        | Some l -> (
            match String.index_opt l '=' with
            | Some _ when String.length l >= 5 && String.sub l 0 4 = "le=\"" ->
                String.sub l 4 (String.length l - 5)
            | _ -> raise (Bad (base ^ "_bucket without an le label")))
        | None -> raise (Bad (base ^ "_bucket without labels"))
      in
      let count = int_of_float value in
      (match Hashtbl.find_opt state.buckets base with
      | Some prev when count < prev ->
          raise (Bad (base ^ " buckets are not cumulative"))
      | _ -> ());
      Hashtbl.replace state.buckets base count;
      if le = "+Inf" then Hashtbl.replace state.inf_buckets base count
  | _ -> (
      match strip_suffix name "_count" with
      | Some base when Hashtbl.find_opt state.types base = Some "histogram" -> (
          match Hashtbl.find_opt state.inf_buckets base with
          | Some inf when int_of_float value <> inf ->
              raise (Bad (base ^ "_count disagrees with its +Inf bucket"))
          | Some _ -> ()
          | None -> raise (Bad (base ^ "_count before its +Inf bucket")))
      | _ -> ())

let lint_line state line =
  if line = "" then ()
  else if String.length line >= 2 && String.sub line 0 2 = "# " then begin
    match String.split_on_char ' ' line with
    | "#" :: "TYPE" :: name :: [ kind ] ->
        if not (valid_name name) then
          raise (Bad (Printf.sprintf "invalid family name %S" name));
        if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
        then raise (Bad (Printf.sprintf "unknown metric type %S" kind));
        if Hashtbl.mem state.types name then
          raise (Bad (Printf.sprintf "duplicate # TYPE for %S" name));
        Hashtbl.replace state.types name kind
    | "#" :: "HELP" :: _ -> ()
    | _ -> () (* other comments are legal and ignored *)
  end
  else begin
    (* name[{labels}] value *)
    let name_end =
      match String.index_opt line '{' with
      | Some i -> i
      | None -> (
          match String.index_opt line ' ' with
          | Some i -> i
          | None -> raise (Bad (Printf.sprintf "no value on line %S" line)))
    in
    let name = String.sub line 0 name_end in
    let labels, rest =
      if name_end < String.length line && line.[name_end] = '{' then begin
        match String.index_from_opt line name_end '}' with
        | None -> raise (Bad (Printf.sprintf "unterminated labels on %S" line))
        | Some close ->
            ( Some (String.sub line (name_end + 1) (close - name_end - 1)),
              String.sub line (close + 1) (String.length line - close - 1) )
      end
      else (None, String.sub line name_end (String.length line - name_end))
    in
    match String.split_on_char ' ' (String.trim rest) with
    | [ value ] -> lint_sample state ~name ~labels ~value:(parse_value value)
    | [ value; _timestamp ] ->
        lint_sample state ~name ~labels ~value:(parse_value value)
    | _ -> raise (Bad (Printf.sprintf "malformed sample line %S" line))
  end

let lint text =
  let state =
    {
      types = Hashtbl.create 32;
      buckets = Hashtbl.create 8;
      inf_buckets = Hashtbl.create 8;
      samples = 0;
    }
  in
  match List.iter (lint_line state) (String.split_on_char '\n' text) with
  | () -> Ok state.samples
  | exception Bad message -> Error message
