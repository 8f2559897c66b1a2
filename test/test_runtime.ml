(* The runtime's contract: one event engine whose time source is the only
   difference between the simulator and the live server — the same
   schedule fires in the same order on virtual and on wall time, wall
   time really elapses, another domain can stop a run, and
   the two-tier scheme is deterministic on the simulator runtime. *)

module Clock = Dangers_runtime.Clock
module Live_clock = Dangers_runtime.Live_clock
module Codec = Dangers_runtime.Codec
module Params = Dangers_analytic.Params
module Metrics = Dangers_sim.Metrics
module Two_tier = Dangers_core.Two_tier
module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats
module Rng = Dangers_util.Rng
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- one schedule, two time sources --- *)

(* A deterministic little scheduling torture: nested schedules, equal
   times, cancellations. Every delay is multiplied by [scale]; logs what
   fired and when. *)
let torture ~scale clock =
  let log = ref [] in
  let after d f = Clock.schedule clock ~delay:(d *. scale) f in
  let fire tag () = log := (tag, Clock.now clock) :: !log in
  ignore (after 2. (fire "a"));
  ignore (after 1. (fire "b"));
  (* equal times fire in schedule order *)
  ignore (after 1. (fire "c"));
  let doomed = after 1.5 (fire "never") in
  Clock.cancel clock doomed;
  ignore
    (after 0.5 (fun () ->
         fire "d" ();
         (* nested: scheduled mid-run, lands between pending events *)
         ignore (after 0.75 (fire "e"));
         Clock.schedule_unit clock ~delay:(3. *. scale) (fire "f")));
  Clock.run clock;
  List.rev !log

let test_virtual_and_wall_same_order () =
  let virt = torture ~scale:1. (Live_clock.create Virtual) in
  (* Scaled so distinct due times are at least 25 ms apart. *)
  let wall = torture ~scale:0.1 (Live_clock.create Wall) in
  Alcotest.check
    Alcotest.(list string)
    "same order" (List.map fst virt) (List.map fst wall);
  Alcotest.check
    Alcotest.(list (float 1e-9))
    "virtual times" [ 0.5; 1.; 1.; 1.25; 2.; 3.5 ] (List.map snd virt);
  checkb "cancelled never fired" true (not (List.mem_assoc "never" wall))

let test_virtual_run_until () =
  let clock = Live_clock.create Virtual in
  let fired = ref 0 in
  ignore (Clock.schedule clock ~delay:1. (fun () -> incr fired));
  ignore (Clock.schedule clock ~delay:10. (fun () -> incr fired));
  Clock.run clock ~until:5.;
  checki "only the due event fired" 1 !fired;
  checkf "clock parked at the deadline" 5. (Clock.now clock);
  Clock.run clock;
  checki "rest fired on resume" 2 !fired

let test_wall_mode_elapses () =
  let clock = Live_clock.create Wall in
  let fired_at = ref nan in
  ignore (Clock.schedule clock ~delay:0.02 (fun () -> fired_at := Clock.now clock));
  Clock.run clock;
  checkb "timer waited for real time" true (!fired_at >= 0.02);
  checkb "did not oversleep wildly" true (!fired_at < 1.);
  checkb "clock monotone past the event" true (Clock.now clock >= !fired_at)

let test_wall_stop_is_thread_safe () =
  let clock = Live_clock.create Wall in
  (* With an idle waiter and an empty queue, only stop ends the run. *)
  Clock.set_idle_waiter clock (Some (fun ~timeout:_ -> ()));
  let stopper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Clock.stop clock)
  in
  Clock.run clock;
  Domain.join stopper;
  checkb "returned after stop" true true

(* --- codec --- *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.put_u8 buf 7;
  Codec.put_u16 buf 65535;
  Codec.put_u32 buf 123_456_789;
  Codec.put_f64 buf (-0.1);
  Codec.put_string buf "hello";
  let frame = Codec.frame buf in
  (* 4-byte length prefix + payload *)
  checki "frame length" (4 + 1 + 2 + 4 + 8 + 2 + 5) (String.length frame);
  let payload = String.sub frame 4 (String.length frame - 4) in
  let r = Codec.reader payload in
  checki "u8" 7 (Codec.get_u8 r);
  checki "u16" 65535 (Codec.get_u16 r);
  checki "u32" 123_456_789 (Codec.get_u32 r);
  checkb "f64 exact" true (Codec.get_f64 r = -0.1);
  Alcotest.check Alcotest.string "string" "hello" (Codec.get_string r);
  Codec.expect_end r;
  Alcotest.check_raises "trailing garbage detected"
    (Codec.Malformed "1 trailing bytes after a complete message")
    (fun () ->
      let r = Codec.reader "\x00\x01" in
      ignore (Codec.get_u8 r);
      Codec.expect_end r)

(* --- two-tier on the simulator runtime --- *)

type counts = {
  commits : int;
  tentative_commits : int;
  accepted : int;
  rejected : int;
  scope_violations : int;
  syncs : int;
}

(* A fixed-seed churning-mobile workload, driven entirely through the
   Clock interface. *)
let run_two_tier clock =
  let params =
    {
      Params.default with
      Params.nodes = 6;
      db_size = 40;
      tps = 2.;
      actions = 2;
      action_time = 0.01;
      time_between_disconnects = 20.;
      disconnected_time = 15.;
    }
  in
  let sys = Two_tier.create ~clock ~base_nodes:3 params ~seed:11 in
  let rng = Rng.create ~seed:99 in
  (* Interleave explicit submissions (numbered nodes, mixed ops) with
     generator load from [start]. *)
  Two_tier.start sys;
  for round = 1 to 40 do
    let node = Rng.int rng params.Params.nodes in
    let oid = Oid.of_int (Rng.int rng params.Params.db_size) in
    let delta = float_of_int (1 + Rng.int rng 8) *. 0.5 in
    Two_tier.submit sys ~node [ Op.Increment (oid, delta) ];
    Clock.run clock ~until:(float_of_int round *. 2.)
  done;
  Two_tier.quiesce_and_sync sys;
  let stats = (Two_tier.base sys).Common.stats in
  {
    commits = (Two_tier.summary sys).Repl_stats.commits;
    tentative_commits = Metrics.total stats.Repl_stats.tentative_commits;
    accepted = Two_tier.tentative_accepted sys;
    rejected = Two_tier.tentative_rejected sys;
    scope_violations = Metrics.total stats.Repl_stats.scope_violations;
    syncs = Metrics.total stats.Repl_stats.syncs;
  }

let test_two_tier_sim_determinism () =
  let a = run_two_tier (Dangers_sim.Engine.create ()) in
  let b = run_two_tier (Dangers_sim.Engine.create ()) in
  checkb "workload actually exercised the mobile path" true
    (a.tentative_commits > 0 && a.syncs > 0 && a.commits > 0);
  checkb "sim deterministic" true (a = b)

let suite =
  [
    Alcotest.test_case
      "torture schedule fires in the same order under virtual and wall time"
      `Quick test_virtual_and_wall_same_order;
    Alcotest.test_case "virtual run ~until parks at the deadline" `Quick
      test_virtual_run_until;
    Alcotest.test_case "wall mode waits for real time" `Quick
      test_wall_mode_elapses;
    Alcotest.test_case "wall stop from another domain" `Quick
      test_wall_stop_is_thread_safe;
    Alcotest.test_case "codec round-trips and rejects garbage" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "two-tier: sim runtime is deterministic" `Quick
      test_two_tier_sim_determinism;
  ]
