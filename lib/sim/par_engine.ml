module Obs = Dangers_obs.Metrics
module Domain_pool = Dangers_util.Domain_pool

type 'msg handler = src:int -> dst:int -> time:float -> 'msg -> unit

type 'msg t = {
  engines : Engine.t array;
  router : 'msg Partition.t;
  lookahead : float;
  mutable handler : 'msg handler option;
  (* events_fired per partition at window start, for stall accounting;
     written and read only at barriers *)
  win_fired : int array;
  mutable windows : int;
  mutable stalls : int;
  mutable nulls : int;
}

let create ?obs ~parts ~lookahead () =
  if parts < 1 then invalid_arg "Par_engine.create: parts must be >= 1";
  let t =
    {
      engines = Array.init parts (fun _ -> Engine.create ());
      router = Partition.create ~parts ~lookahead;
      lookahead;
      handler = None;
      win_fired = Array.make parts 0;
      windows = 0;
      stalls = 0;
      nulls = 0;
    }
  in
  (match obs with
  | None -> ()
  | Some registry ->
      Obs.register_source registry (fun () ->
          [
            Obs.Gauge ("parsim.partitions", float_of_int parts);
            Obs.Count ("parsim.windows_total", t.windows);
            Obs.Count ("parsim.lookahead_stalls_total", t.stalls);
            Obs.Count ("parsim.null_messages_total", t.nulls);
            Obs.Count ("parsim.channel_posts_total", Partition.posts_total t.router);
            Obs.Count
              ("parsim.channel_delivered_total", Partition.delivered_total t.router);
          ]));
  t

let parts t = Array.length t.engines
let lookahead t = t.lookahead

let engine t p =
  if p < 0 || p >= Array.length t.engines then
    invalid_arg
      (Printf.sprintf "Par_engine.engine: partition %d outside [0, %d)" p
         (Array.length t.engines));
  t.engines.(p)

let set_handler t handler = t.handler <- Some handler

let post t ~src ~dst ~delay msg =
  if not (Float.is_finite delay && delay >= t.lookahead) then
    invalid_arg
      (Printf.sprintf
         "Par_engine.post: delay %.9g is below the lookahead %.9g — the \
          conservative window bound would be unsound"
         delay t.lookahead);
  let time = Engine.now (engine t src) +. delay in
  Partition.post t.router ~src ~dst ~time msg

let safe_time t ~dst = Partition.safe_time t.router ~dst

let now t =
  Array.fold_left (fun acc e -> Float.min acc (Engine.now e)) infinity t.engines

let events_fired t =
  Array.fold_left (fun acc e -> acc + Engine.events_fired e) 0 t.engines

let next_global t =
  Array.fold_left
    (fun acc e ->
      match Engine.next_time e with
      | None -> acc
      | Some w -> (
          match acc with
          | None -> Some w
          | Some best -> if w < best then Some w else acc))
    None t.engines

let run ?pool ?max_events ?until t =
  let handler =
    match t.handler with
    | Some h -> h
    | None -> invalid_arg "Par_engine.run: no message handler set"
  in
  let budget = match max_events with Some n -> n | None -> max_int in
  let fired_at_entry = events_fired t in
  let n = Array.length t.engines in
  let pool =
    match pool with
    | Some pool when Domain_pool.size pool > 1 && n > 1 -> Some pool
    | _ -> None
  in
  let enter post =
    handler ~src:post.Partition.p_src ~dst:post.Partition.p_dst
      ~time:post.Partition.p_time post.Partition.p_msg
  in
  let deliver dst =
    (* DR1: worker [dst] reads and clears only [dst]'s router outboxes,
       and the handler contract confines it to [dst]'s state; the window
       phase has finished, and [parallel_for] joins every delivery before
       [t] is read again on this domain. *)
    Partition.drain t.router ~dst ~deliver:enter
  in
  (* The delivery phase: each destination drains its inbound posts. *)
  let deliver_all () =
    match pool with
    | Some pool -> Domain_pool.parallel_for pool ~n ~f:deliver
    | None ->
        for dst = 0 to n - 1 do
          deliver dst
        done
  in
  (* Every barrier drains, so posts are only pending at entry when they
     were made outside a run — seeding an otherwise-idle system, or
     between runs. Turn them into engine events now or the loop below
     would see an empty schedule and stop short of them. *)
  if Partition.pending t.router > 0 then deliver_all ();
  (* Drain everything at or below [u] is done; set every clock to [u],
     mirroring the serial engine's [run ~until]. *)
  let finish () =
    match until with
    | None -> ()
    | Some u ->
        Array.iter (fun e -> Engine.run e ~until:u) t.engines;
        Partition.advance_all t.router ~time:u
  in
  let continue = ref true in
  while !continue do
    match next_global t with
    | None ->
        finish ();
        continue := false
    | Some w -> (
        match until with
        | Some u when w > u ->
            finish ();
            continue := false
        | _ ->
            let bound = w +. t.lookahead in
            (* When the deadline cuts the window short, fire through it
               inclusively (serial [run ~until] semantics); posts made at or
               after [w] still land at or beyond [w + lookahead >= u]. *)
            let inclusive, bound =
              match until with
              | Some u when u < bound -> (true, u)
              | _ -> (false, bound)
            in
            t.windows <- t.windows + 1;
            Array.iteri
              (fun p e -> t.win_fired.(p) <- Engine.events_fired e)
              t.engines;
            let window p =
              (* Suppressed DR1: partitions are disjoint — worker [p]
                 touches only [t.engines.(p)] and its own router outboxes —
                 and [parallel_for] joins every window before [t] is read
                 again on this domain. *)
              let e = (t.engines.(p) [@lint.allow "dr1"]) in
              if inclusive then Engine.run e ~until:bound
              else begin
                let more = ref true in
                while !more do
                  match Engine.next_time e with
                  | Some tm when tm < bound -> ignore (Engine.step e)
                  | _ -> more := false
                done
              end;
              Partition.advance t.router ~part:p ~time:bound
            in
            (match pool with
            | Some pool -> Domain_pool.parallel_for pool ~n ~f:window
            | None ->
                for p = 0 to n - 1 do
                  window p
                done);
            Array.iteri
              (fun p e ->
                if Engine.events_fired e = t.win_fired.(p) then begin
                  t.stalls <- t.stalls + 1;
                  t.nulls <- t.nulls + 1
                end)
              t.engines;
            if events_fired t - fired_at_entry > budget then
              raise (Engine.Runaway budget);
            deliver_all ())
  done

let windows t = t.windows
let stalls t = t.stalls
let null_messages t = t.nulls
let posts_total t = Partition.posts_total t.router
let delivered_total t = Partition.delivered_total t.router
