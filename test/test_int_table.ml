(* Int_table against Stdlib.Hashtbl as a model. *)

module Int_table = Dangers_util.Int_table

let checki = Alcotest.check Alcotest.int

type op =
  | Add of int * int
  | Replace of int * int
  | Remove of int
  | Find of int
  | Fold

let pp_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Fold -> "fold"

(* The table's hash, copied here only to pick keys that crowd its last
   slots: at capacity 8 (the smallest) and 16, a run of such keys wraps
   around the end of the array, so removals shift entries back across
   the wrap. *)
let home ~bits key = (key * 0x9E3779B97F4A7C1) lsr (Sys.int_size - bits)

let crowded =
  let rec pick acc key =
    if List.length acc = 12 then acc
    else if home ~bits:3 key = 7 || home ~bits:4 key >= 14 then
      pick (key :: acc) (key + 1)
    else pick acc (key + 1)
  in
  Array.of_list (pick [] 0)

let key_gen =
  QCheck.Gen.(
    frequency
      [
        (4, oneofa crowded);
        (3, int_range 0 20);
        (1, oneofl [ -1; -5; max_int; min_int + 1 ]);
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) key_gen small_nat);
        (2, map2 (fun k v -> Replace (k, v)) key_gen small_nat);
        (4, map (fun k -> Remove k) key_gen);
        (3, map (fun k -> Find k) key_gen);
        (1, return Fold);
      ])

let script_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 200) op_gen)

let bindings_model model =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let bindings table =
  List.sort compare (Int_table.fold (fun k v acc -> (k, v) :: acc) table [])

let agrees_with_hashtbl =
  QCheck.Test.make ~name:"int table: agrees with Hashtbl" ~count:500
    script_arb (fun script ->
      let filler = -1 in
      let table = Int_table.create ~filler 1 in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          (match op with
            | Add (k, v) ->
                if Hashtbl.mem model k then
                  match Int_table.add table k v with
                  | () -> false
                  | exception Invalid_argument _ -> true
                else begin
                  Hashtbl.replace model k v;
                  Int_table.add table k v;
                  true
                end
            | Replace (k, v) ->
                Hashtbl.replace model k v;
                Int_table.replace table k v;
                true
            | Remove k ->
                Hashtbl.remove model k;
                Int_table.remove table k;
                true
            | Find k ->
                let expected = Hashtbl.find_opt model k in
                Int_table.mem table k = Option.is_some expected
                && Int_table.get table k = Option.value expected ~default:filler
            | Fold -> bindings table = bindings_model model)
          && Int_table.length table = Hashtbl.length model
          (* every bound key is still reachable from its home slot *)
          && List.for_all
               (fun (k, v) -> Int_table.get table k = v)
               (bindings_model model))
        script)

let test_min_int_rejected () =
  let table = Int_table.create ~filler:"" 4 in
  Alcotest.check_raises "add" (Invalid_argument "Int_table: min_int is not a valid key")
    (fun () -> Int_table.add table min_int "x");
  Alcotest.check_raises "replace"
    (Invalid_argument "Int_table: min_int is not a valid key") (fun () ->
      Int_table.replace table min_int "x");
  Alcotest.check Alcotest.bool "not a member" false (Int_table.mem table min_int);
  Alcotest.check Alcotest.string "reads as the filler" "" (Int_table.get table min_int);
  checki "empty" 0 (Int_table.length table)

(* Growth and removal leave nothing behind: after many keys pass through
   a table that never holds more than 8 at once, it is the size it was
   after the first pass. *)
let test_bounded_by_peak () =
  let table = Int_table.create ~filler:0 1 in
  let pass base =
    for k = base to base + 7 do
      Int_table.add table k k
    done;
    for k = base to base + 7 do
      Int_table.remove table k
    done
  in
  pass 0;
  let early = Obj.reachable_words (Obj.repr table) in
  for i = 1 to 10_000 do
    pass (8 * i)
  done;
  checki "empty" 0 (Int_table.length table);
  checki "same size as after one pass" early
    (Obj.reachable_words (Obj.repr table))

let suite =
  [
    Alcotest.test_case "min_int rejected" `Quick test_min_int_rejected;
    Alcotest.test_case "bounded by peak" `Quick test_bounded_by_peak;
    QCheck_alcotest.to_alcotest agrees_with_hashtbl;
  ]
