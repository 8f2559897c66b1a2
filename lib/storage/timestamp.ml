(* [(counter lsl node_bits) lor (node + 1)]: with [counter >= 0] and
   [node + 1] below [1 lsl node_bits], the packed words order like the
   pairs. *)
type t = int

let node_bits = 20
let node_mask = (1 lsl node_bits) - 1
let node_bound = node_mask
let max_counter = max_int lsr node_bits
let pack counter node = (counter lsl node_bits) lor (node + 1)

let make ~counter ~node =
  if counter < 0 || counter > max_counter then
    invalid_arg "Timestamp.make: counter out of range";
  if node < -1 || node >= node_bound then
    invalid_arg "Timestamp.make: node out of range";
  pack counter node

let counter t = t lsr node_bits
let node t = (t land node_mask) - 1
let zero = pack 0 (-1)
let compare = Int.compare
let equal = Int.equal
let newer a ~than = a > than
let pp ppf t = Format.fprintf ppf "%d@@n%d" (counter t) (node t)

module Clock = struct
  type ts = t
  type nonrec t = { clock_node : int; mutable last : int }

  let create ~node =
    if node < 0 then invalid_arg "Timestamp.Clock.create: negative node id";
    if node >= node_bound then
      invalid_arg "Timestamp.Clock.create: node id at or above node_bound";
    { clock_node = node; last = 0 }

  let node t = t.clock_node

  let tick t =
    t.last <- t.last + 1;
    pack t.last t.clock_node

  let witness t ts =
    let c = counter ts in
    if c > t.last then t.last <- c
end
