type 'msg post = {
  p_time : float;
  p_src : int;
  p_dst : int;
  p_seq : int;
  p_msg : 'msg;
}

type 'msg t = {
  parts : int;
  lookahead : float;
  (* [boxes.(src * parts + dst)]: posts from [src] to [dst], newest first.
     Written only by the domain running [src]'s window; read and cleared
     only by the domain delivering [dst]. The two never overlap: a window
     phase and a delivery phase are separated by a barrier. *)
  boxes : 'msg post list array;
  seqs : int array;
  horizons : float array;
  (* per destination, written only while delivering that destination *)
  posted : int array;
  delivered : int array;
}

let create ~parts ~lookahead =
  if parts < 1 then invalid_arg "Partition.create: parts must be >= 1";
  if not (Float.is_finite lookahead && lookahead > 0.) then
    invalid_arg "Partition.create: lookahead must be positive and finite";
  {
    parts;
    lookahead;
    boxes = Array.make (parts * parts) [];
    seqs = Array.make parts 0;
    horizons = Array.make parts 0.;
    posted = Array.make parts 0;
    delivered = Array.make parts 0;
  }

let parts t = t.parts
let lookahead t = t.lookahead

let check_part t what p =
  if p < 0 || p >= t.parts then
    invalid_arg (Printf.sprintf "Partition.%s: partition %d outside [0, %d)" what p t.parts)

let post t ~src ~dst ~time msg =
  check_part t "post" src;
  check_part t "post" dst;
  if not (Float.is_finite time) then invalid_arg "Partition.post: non-finite time";
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  let box = (src * t.parts) + dst in
  t.boxes.(box) <-
    { p_time = time; p_src = src; p_dst = dst; p_seq = seq; p_msg = msg }
    :: t.boxes.(box)

let advance t ~part ~time =
  check_part t "advance" part;
  if time > t.horizons.(part) then t.horizons.(part) <- time

let advance_all t ~time =
  for p = 0 to t.parts - 1 do
    advance t ~part:p ~time
  done

let horizon t ~part =
  check_part t "horizon" part;
  t.horizons.(part)

let safe_time t ~dst =
  check_part t "safe_time" dst;
  if t.parts = 1 then infinity
  else begin
    let least = ref infinity in
    for src = 0 to t.parts - 1 do
      if src <> dst && t.horizons.(src) < !least then least := t.horizons.(src)
    done;
    !least +. t.lookahead
  end

let pending t = Array.fold_left (fun acc box -> acc + List.length box) 0 t.boxes

let compare_posts a b =
  let c = Float.compare a.p_time b.p_time in
  if c <> 0 then c
  else
    let c = Int.compare a.p_src b.p_src in
    if c <> 0 then c else Int.compare a.p_seq b.p_seq

let drain t ~dst ~deliver =
  check_part t "drain" dst;
  let inbound = ref [] in
  for src = t.parts - 1 downto 0 do
    let box = (src * t.parts) + dst in
    match t.boxes.(box) with
    | [] -> ()
    | posts ->
        t.boxes.(box) <- [];
        inbound := List.rev_append posts !inbound
  done;
  match !inbound with
  | [] -> ()
  | inbound ->
      let horizon = t.horizons.(dst) in
      List.iter
        (fun post ->
          (* The receiver finished its window through [horizon]; an
             earlier delivery would rewrite its past. *)
          if post.p_time < horizon then
            invalid_arg
              (Printf.sprintf
                 "Partition.drain: post from %d to %d at t=%.9g precedes the \
                  receiver's completed horizon %.9g (conservative \
                  synchronization violated)"
                 post.p_src dst post.p_time horizon);
          t.posted.(dst) <- t.posted.(dst) + 1;
          deliver post;
          t.delivered.(dst) <- t.delivered.(dst) + 1)
        (List.sort compare_posts inbound)

let sum = Array.fold_left ( + ) 0
let posts_total t = sum t.posted
let delivered_total t = sum t.delivered
