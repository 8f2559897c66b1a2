type t = { weights : int array; read_quorum : int; write_quorum : int }

let create ~weights ~read_quorum ~write_quorum =
  if Array.length weights = 0 then invalid_arg "Quorum.create: no replicas";
  if Array.exists (fun w -> w < 0) weights then
    invalid_arg "Quorum.create: negative weight";
  let total = Array.fold_left ( + ) 0 weights in
  if total = 0 then invalid_arg "Quorum.create: zero total votes";
  if read_quorum <= 0 || write_quorum <= 0 then
    invalid_arg "Quorum.create: quorums must be positive";
  if read_quorum + write_quorum <= total then
    invalid_arg "Quorum.create: need r + w > total votes";
  if 2 * write_quorum <= total then
    invalid_arg "Quorum.create: need 2w > total votes";
  { weights; read_quorum; write_quorum }

let majority ~n =
  if n <= 0 then invalid_arg "Quorum.majority: n must be positive";
  let q = (n / 2) + 1 in
  create ~weights:(Array.make n 1) ~read_quorum:q ~write_quorum:q

let read_one_write_all ~n =
  if n <= 0 then invalid_arg "Quorum.read_one_write_all: n must be positive";
  create ~weights:(Array.make n 1) ~read_quorum:1 ~write_quorum:n

let replicas t = Array.length t.weights
let read_quorum t = t.read_quorum
let write_quorum t = t.write_quorum

let votes_up t ~up =
  if Array.length up <> Array.length t.weights then
    invalid_arg "Quorum: up-set size mismatch";
  let votes = ref 0 in
  Array.iteri (fun i is_up -> if is_up then votes := !votes + t.weights.(i)) up;
  !votes

let can_read t ~up = votes_up t ~up >= t.read_quorum
let can_write t ~up = votes_up t ~up >= t.write_quorum

let availability t ~p_up ~quorum =
  if p_up < 0. || p_up > 1. then invalid_arg "Quorum: p_up outside [0,1]";
  let n = Array.length t.weights in
  if n > 20 then invalid_arg "Quorum: availability enumeration limited to 20 replicas";
  (* Sum over all 2^n up/down patterns of P(pattern) where the up votes
     reach the quorum. *)
  let total = ref 0. in
  for pattern = 0 to (1 lsl n) - 1 do
    let votes = ref 0 and probability = ref 1. in
    for i = 0 to n - 1 do
      if pattern land (1 lsl i) <> 0 then begin
        votes := !votes + t.weights.(i);
        probability := !probability *. p_up
      end
      else probability := !probability *. (1. -. p_up)
    done;
    if !votes >= quorum then total := !total +. !probability
  done;
  !total

let read_availability t ~p_up = availability t ~p_up ~quorum:t.read_quorum
let write_availability t ~p_up = availability t ~p_up ~quorum:t.write_quorum
