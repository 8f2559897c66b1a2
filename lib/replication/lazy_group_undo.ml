module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Metrics = Dangers_sim.Metrics
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp
module Rng = Dangers_util.Rng
module Stats = Dangers_util.Stats

type update = {
  u_oid : Oid.t;
  u_old_stamp : Timestamp.t;
  u_value : float;
  u_stamp : Timestamp.t;
}

type msg =
  | Replicate of { txn : int; updates : update list }
  | Ack of int
  | Nack of int
  | Abort of { txn : int; updates : update list }

(* Per-transaction origin-side record. *)
type pending = {
  p_origin : int;
  p_updates : update list;
  p_undo : (Oid.t * float * Timestamp.t) list; (* origin's pre-images *)
  p_committed_at : float;
  mutable p_acks : int;
  mutable p_aborted : bool;
}

type t = {
  common : Common.base;
  mutable network : msg Network.t option;
  pending : (int, pending) Hashtbl.t;
  (* Receiver-side pre-images for possible backout, per (node, txn). *)
  applied : (int * int, (Oid.t * float * Timestamp.t) list) Hashtbl.t;
  mutable next_txn : int;
  lag : Stats.t;
  mutable fleet : Connectivity.fleet option;
}

let base t = t.common

let network t = match t.network with Some n -> n | None -> assert false

let revert store undo_list =
  List.iter
    (fun (oid, value, stamp) -> Fstore.write store oid value stamp)
    undo_list

let finish_undo t txn pending =
  if not pending.p_aborted then begin
    pending.p_aborted <- true;
    Metrics.incr t.common.Common.stats.Repl_stats.undone;
    revert t.common.Common.stores.(pending.p_origin) pending.p_undo;
    (* Tell everyone who might have applied it to back it out. *)
    Network.broadcast (network t) ~src:pending.p_origin
      (Abort { txn; updates = pending.p_updates });
    Hashtbl.remove t.pending txn
  end

let handle_replicate t ~src ~dst ~txn updates =
  let store = t.common.Common.stores.(dst) in
  let chain_ok =
    List.for_all
      (fun u -> Timestamp.equal (Fstore.stamp store u.u_oid) u.u_old_stamp)
      updates
  in
  if chain_ok then begin
    let pre_images =
      List.map
        (fun u -> (u.u_oid, Fstore.read store u.u_oid, Fstore.stamp store u.u_oid))
        updates
    in
    List.iter
      (fun u ->
        Timestamp.Clock.witness t.common.Common.clocks.(dst) u.u_stamp;
        Fstore.write store u.u_oid u.u_value u.u_stamp)
      updates;
    Hashtbl.replace t.applied (dst, txn) pre_images;
    Network.send (network t) ~src:dst ~dst:src (Ack txn)
  end
  else begin
    Metrics.incr t.common.Common.stats.Repl_stats.reconciliations;
    Network.send (network t) ~src:dst ~dst:src (Nack txn)
  end

let handle_abort t ~dst ~txn updates =
  match Hashtbl.find_opt t.applied (dst, txn) with
  | None -> ()
  | Some pre_images ->
      Hashtbl.remove t.applied (dst, txn);
      let store = t.common.Common.stores.(dst) in
      (* Back out only values this transaction still owns (a newer update
         over the top wins; cascades are out of the model's scope). *)
      List.iter
        (fun (oid, value, stamp) ->
          let still_ours =
            List.exists
              (fun u ->
                Oid.equal u.u_oid oid
                && Timestamp.equal (Fstore.stamp store oid) u.u_stamp)
              updates
          in
          if still_ours then Fstore.write store oid value stamp)
        pre_images

let deliver t ~src ~dst message =
  match message with
  | Replicate { txn; updates } -> handle_replicate t ~src ~dst ~txn updates
  | Ack txn ->
      (match Hashtbl.find_opt t.pending txn with
      | None -> ()
      | Some pending ->
          pending.p_acks <- pending.p_acks + 1;
          if
            (not pending.p_aborted)
            && pending.p_acks = t.common.Common.params.Params.nodes - 1
          then begin
            Metrics.incr t.common.Common.stats.Repl_stats.durable;
            Stats.add t.lag
              (Clock.now t.common.Common.clock -. pending.p_committed_at);
            Hashtbl.remove t.pending txn
          end)
  | Nack txn ->
      (match Hashtbl.find_opt t.pending txn with
      | None -> ()
      | Some pending -> finish_undo t txn pending)
  | Abort { txn; updates } -> handle_abort t ~dst ~txn updates

(* Local commit is instantaneous (the locking dynamics live in Lazy_group;
   this scheme isolates the durability question). *)
let submit t ~node ops =
  let store = t.common.Common.stores.(node) in
  let clock = t.common.Common.clocks.(node) in
  let undo = ref [] and updates = ref [] in
  List.iter
    (fun op ->
      if Op.is_update op then begin
        let oid = Op.oid op in
        let current = Fstore.read store oid in
        let value = Op.apply ~read:(Fstore.read store) ~current op in
        undo := (oid, current, Fstore.stamp store oid) :: !undo;
        let u =
          {
            u_oid = oid;
            u_old_stamp = Fstore.stamp store oid;
            u_value = value;
            u_stamp = Timestamp.Clock.tick clock;
          }
        in
        Fstore.write store oid value u.u_stamp;
        updates := u :: !updates
      end)
    ops;
  if !updates <> [] then begin
    let txn = t.next_txn in
    t.next_txn <- t.next_txn + 1;
    Hashtbl.replace t.pending txn
      {
        p_origin = node;
        p_updates = List.rev !updates;
        p_undo = !undo;
        p_committed_at = Clock.now t.common.Common.clock;
        p_acks = 0;
        p_aborted = false;
      };
    Metrics.incr t.common.Common.stats.Repl_stats.commits;
    Network.broadcast (network t) ~src:node
      (Replicate { txn; updates = List.rev !updates })
  end

let create ?obs ?profile ?initial_value ?mobility ?mobile_nodes params ~seed =
  let common = Common.make ?obs ?profile ?initial_value params ~seed in
  let obs = common.Common.obs in
  let t =
    {
      common;
      network = None;
      pending = Hashtbl.create 256;
      applied = Hashtbl.create 256;
      next_txn = 0;
      lag = Stats.create ();
      fleet = None;
    }
  in
  let net =
    Network.create ?obs ~clock:common.Common.clock
      ~rng:(Rng.split common.Common.rng) ~delay:Delay.Zero
      ~nodes:params.Params.nodes
      ~deliver:(fun ~src ~dst message -> deliver t ~src ~dst message) ()
  in
  t.network <- Some net;
  t.fleet <-
    Option.map
      (fun spec ->
        Connectivity.fleet ~clock:common.Common.clock ~rng:common.Common.rng
          ~spec
          ~nodes:
            (match mobile_nodes with
            | Some nodes -> nodes
            | None -> List.init params.Params.nodes Fun.id)
          ~set_connected:(Network.set_connected net))
      mobility;
  t

let start t = Common.start_generators t.common ~submit:(fun ~node ops -> submit t ~node ops)
let stop_load t = Common.stop_generators t.common

let durable t = Metrics.total t.common.Common.stats.Repl_stats.durable
let tentative_outstanding t = Hashtbl.length t.pending
let undone t = Metrics.total t.common.Common.stats.Repl_stats.undone
let durability_lag t = t.lag

let force_sync t =
  Option.iter Connectivity.stop_fleet t.fleet;
  for node = 0 to t.common.Common.params.Params.nodes - 1 do
    Network.set_connected (network t) ~node true
  done;
  Common.drain t.common
