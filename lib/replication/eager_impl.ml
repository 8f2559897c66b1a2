module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Engine = Dangers_sim.Engine
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp
module Executor = Dangers_txn.Executor
module Lock_table = Dangers_lock.Lock_table
module Rng = Dangers_util.Rng

type ownership = Group | Master

type t = {
  common : Common.base;
  executor : Executor.t;
  delay_rng : Rng.t;
  delay : Dangers_runtime.Delay.t;
  ownership : ownership;
  on_commit : (node:int -> Op.t list -> unit) option;
  (* visit_orders.(first) = first :: the other replicas in node order;
     precomputed because the hot path builds steps from these lists for
     every update of every attempt. *)
  visit_orders : int list array;
}

let scheme_name = function Group -> "eager-group" | Master -> "eager-master"

let create ?obs ?profile ?initial_value ?(delay = Dangers_runtime.Delay.Zero)
    ?on_commit ownership params ~seed =
  Dangers_runtime.Delay.validate delay;
  let common = Common.make ?obs ?profile ?initial_value params ~seed in
  let locks = Lock_table.create ?obs:common.Common.obs () in
  let delay_rng = Rng.split common.Common.rng in
  let executor =
    Common.executor common ~locks ~retry_rng:(Rng.split common.Common.rng)
  in
  let nodes = params.Params.nodes in
  {
    common;
    executor;
    delay_rng;
    delay;
    ownership;
    on_commit;
    visit_orders =
      Array.init nodes (fun first ->
          first :: List.filter (fun m -> m <> first) (List.init nodes Fun.id));
  }

let base t = t.common
let ownership t = t.ownership

let master_of t oid = Oid.to_int oid mod t.common.Common.params.Params.nodes

(* The replicas an action visits, first-lock first. *)
let visit_order t ~origin oid =
  let first = match t.ownership with Group -> origin | Master -> master_of t oid in
  t.visit_orders.(first)

let resource t ~node oid =
  (node * t.common.Common.params.Params.db_size) + Oid.to_int oid

let apply_everywhere t ~origin ops =
  let common = t.common in
  List.iter
    (fun op ->
      if Op.is_update op then begin
      let oid = Op.oid op in
      let origin_store = common.Common.stores.(origin) in
      let current = Fstore.read origin_store oid in
      let value = Op.apply ~read:(Fstore.read origin_store) ~current op in
      let stamp = Timestamp.Clock.tick common.Common.clocks.(origin) in
      Array.iter (fun store -> Fstore.write store oid value stamp)
        common.Common.stores
      end)
    ops

let submit t ~node ops =
  let common = t.common in
  let build_steps () =
    List.concat_map
      (fun op ->
        let oid = Op.oid op in
        if Op.is_update op then
          List.map
            (fun m ->
              let step =
                Executor.update_step ~resource:(resource t ~node:m oid)
              in
              if m = node then step
              else begin
                (* A remote update costs Action_Time plus the message
                   delay the model ignores; charged here for the
                   delay ablation. *)
                let extra = Dangers_runtime.Delay.sample t.delay t.delay_rng in
                if Float.equal extra 0. then step
                else
                  {
                    step with
                    Executor.cost =
                      Some
                        (t.common.Common.params.Params.action_time +. extra);
                  }
              end)
            (visit_order t ~origin:node oid)
        else
          (* Reads touch only the local replica: read-only work adds no
             remote load (Figure 3). *)
          [ Executor.read_step ~resource:(resource t ~node oid) ])
      ops
  in
  (* Sampling a [Zero] or [Constant] delay draws nothing from the RNG and
     always yields the same steps, so retries can reuse the first attempt's
     list instead of rebuilding it — the dominant allocation of a contended
     run, where one submission can restart thousands of times. Randomized
     delay models must keep resampling per attempt. *)
  let steps =
    match t.delay with
    | Dangers_runtime.Delay.Zero | Dangers_runtime.Delay.Constant _ ->
        let steps = build_steps () in
        fun () -> steps
    | Dangers_runtime.Delay.Uniform _ | Dangers_runtime.Delay.Exponential _ ->
        build_steps
  in
  Executor.run t.executor ~steps ~on_commit:(fun ~started ->
      apply_everywhere t ~origin:node ops;
      Common.commit_duration common ~started;
      match t.on_commit with Some f -> f ~node ops | None -> ())

let start t = Common.start_generators t.common ~submit:(fun ~node ops -> submit t ~node ops)
let stop_load t = Common.stop_generators t.common

let summary t =
  Common.summary ~scheme:(scheme_name t.ownership) t.common
