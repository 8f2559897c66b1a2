(* Linear probing over two parallel arrays. The capacity is a power of two
   and at least twice the bindings, so every probe ends at an empty slot.
   The probe loops are top-level functions over explicit arguments: a
   local closure would be allocated on every call. *)

let empty = min_int

type 'a t = {
  filler : 'a;
  mutable keys : int array; (* [empty] where unbound *)
  mutable values : 'a array; (* [filler] where unbound *)
  mutable size : int;
  mutable shift : int; (* [Sys.int_size - log2 capacity] *)
}

(* Fibonacci hashing: the multiply spreads every key bit into the high
   bits, and the shift keeps the top [log2 capacity] of them. Keys that
   differ only above the low bits, such as [tid * nodes + home] at one
   home, still spread over the slots. *)
let home t key = (key * 0x9E3779B97F4A7C1) lsr t.shift

let log2_capacity n =
  let rec go bits = if 1 lsl bits >= 2 * n then bits else go (bits + 1) in
  go 3

let create ~filler n =
  let bits = log2_capacity n in
  { filler; keys = Array.make (1 lsl bits) empty;
    values = Array.make (1 lsl bits) filler; size = 0;
    shift = Sys.int_size - bits }

let length t = t.size

(* The slot holding [key], or the empty slot where its probe ends. *)
let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key || k = empty then i else probe keys mask key ((i + 1) land mask)

let slot t key =
  let mask = Array.length t.keys - 1 in
  probe t.keys mask key (home t key)

let get t key = t.values.(slot t key)
let mem t key = key <> empty && t.keys.(slot t key) = key

let grow t =
  let keys = t.keys and values = t.values in
  let bits = Sys.int_size - t.shift + 1 in
  t.keys <- Array.make (1 lsl bits) empty;
  t.values <- Array.make (1 lsl bits) t.filler;
  t.shift <- Sys.int_size - bits;
  Array.iteri
    (fun i key ->
      if key <> empty then begin
        let j = slot t key in
        t.keys.(j) <- key;
        t.values.(j) <- values.(i)
      end)
    keys

let bind ~fail_if_bound t key value =
  if key = empty then invalid_arg "Int_table: min_int is not a valid key";
  if 2 * (t.size + 1) > Array.length t.keys then grow t;
  let i = slot t key in
  if t.keys.(i) = key then begin
    if fail_if_bound then invalid_arg "Int_table.add: key already bound";
    t.values.(i) <- value
  end
  else begin
    t.keys.(i) <- key;
    t.values.(i) <- value;
    t.size <- t.size + 1
  end

let add t key value = bind ~fail_if_bound:true t key value
let replace t key value = bind ~fail_if_bound:false t key value

(* Backward-shift deletion: [hole] is empty; walk the run after it and
   move back each entry whose home slot does not lie cyclically in
   (hole, j], since a probe for it starts at or before the hole. The run
   ends at an empty slot. *)
let rec close_hole t mask hole j =
  let j = (j + 1) land mask in
  let key = t.keys.(j) in
  if key = empty then begin
    t.keys.(hole) <- empty;
    t.values.(hole) <- t.filler
  end
  else if (j - home t key) land mask >= (j - hole) land mask then begin
    t.keys.(hole) <- key;
    t.values.(hole) <- t.values.(j);
    close_hole t mask j j
  end
  else close_hole t mask hole j

let remove t key =
  let i = slot t key in
  if key <> empty && t.keys.(i) = key then begin
    t.size <- t.size - 1;
    close_hole t (Array.length t.keys - 1) i i
  end

let fold f t init =
  let acc = ref init in
  Array.iteri
    (fun i key -> if key <> empty then acc := f key t.values.(i) !acc)
    t.keys;
  !acc
