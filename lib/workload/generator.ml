module Clock = Dangers_runtime.Clock
module Rng = Dangers_util.Rng

type t = {
  clock : Clock.t;
  rng : Rng.t;
  mean_interarrival : float;
  sampler : Profile.sampler;
  submit : Dangers_txn.Op.t list -> unit;
  mutable next_arrival : Clock.event_id option;
  mutable stopped : bool;
  mutable count : int;
}

let rec arm t =
  if not t.stopped then begin
    let gap = Rng.exponential t.rng ~mean:t.mean_interarrival in
    t.next_arrival <-
      Some
        (Clock.schedule t.clock ~delay:gap (fun () ->
             t.count <- t.count + 1;
             t.submit (Profile.draw t.sampler t.rng);
             arm t))
  end

let start ~clock ~rng ~tps ~profile ~db_size ~submit =
  if not (tps > 0.) then invalid_arg "Generator.start: tps must be positive";
  let t =
    {
      clock;
      rng;
      mean_interarrival = 1. /. tps;
      sampler = Profile.sampler profile ~db_size;
      submit;
      next_arrival = None;
      stopped = false;
      count = 0;
    }
  in
  arm t;
  t

let stop t =
  t.stopped <- true;
  match t.next_arrival with
  | Some event ->
      Clock.cancel t.clock event;
      t.next_arrival <- None
  | None -> ()

let generated t = t.count
