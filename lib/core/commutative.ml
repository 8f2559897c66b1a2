module Oid = Dangers_storage.Oid
module Op = Dangers_txn.Op
module Rng = Dangers_util.Rng

let positive name amount =
  if amount < 0. then invalid_arg ("Commutative." ^ name ^ ": negative amount")

let deposit oid amount =
  positive "deposit" amount;
  [ Op.Increment (oid, amount) ]

let debit oid amount =
  positive "debit" amount;
  [ Op.Increment (oid, -.amount) ]

let transfer ~from_ ~to_ amount =
  positive "transfer" amount;
  if Oid.equal from_ to_ then invalid_arg "Commutative.transfer: same account";
  [ Op.Increment (from_, -.amount); Op.Increment (to_, amount) ]

let adjust_stock oid delta = [ Op.Increment (oid, delta) ]

let pairwise_commute txns =
  let rec check = function
    | [] -> true
    | txn :: rest ->
        List.for_all (fun other -> Op.all_commute txn other) rest && check rest
  in
  check txns

let final_state ~db_size ~init txns =
  let state = Array.make db_size init in
  List.iter
    (fun ops ->
      List.iter
        (fun op ->
          let i = Oid.to_int (Op.oid op) in
          let read oid = state.(Oid.to_int oid) in
          state.(i) <- Op.apply ~read ~current:state.(i) op)
        ops)
    txns;
  state

let converges ?(trials = 8) ~rng ~db_size ~init txns =
  let reference = final_state ~db_size ~init txns in
  let equal a b = Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b in
  let arr = Array.of_list txns in
  let rec attempt k =
    if k = 0 then true
    else begin
      Rng.shuffle rng arr;
      let permuted = final_state ~db_size ~init (Array.to_list arr) in
      equal reference permuted && attempt (k - 1)
    end
  in
  attempt trials
