module Rng = Dangers_util.Rng
module Oid = Dangers_storage.Oid
module Op = Dangers_txn.Op

type update_kind = Assigns | Increments | Mixed of float
type access =
  | Uniform
  | Zipf of float
  | Tpcb of { branches : int; tellers_per_branch : int }

type t = {
  actions : int;
  reads : int;
  update_kind : update_kind;
  access : access;
  magnitude : float;
}

let create ?(update_kind = Assigns) ?(access = Uniform) ?(magnitude = 100.)
    ?(reads = 0) ~actions () =
  if actions <= 0 then invalid_arg "Profile.create: actions must be positive";
  if reads < 0 then invalid_arg "Profile.create: reads must be >= 0";
  if magnitude <= 0. then invalid_arg "Profile.create: magnitude must be positive";
  (match update_kind with
  | Mixed fraction when fraction < 0. || fraction > 1. ->
      invalid_arg "Profile.create: Mixed fraction outside [0,1]"
  | Mixed _ | Assigns | Increments -> ());
  (match access with
  | Zipf theta when not (theta > 0.) ->
      invalid_arg "Profile.create: Zipf theta must be positive"
  | Zipf theta when Float.equal theta 1. ->
      invalid_arg "Profile.create: Zipf theta must not be 1"
  | Tpcb { branches; tellers_per_branch } ->
      if branches <= 0 || tellers_per_branch <= 0 then
        invalid_arg "Profile.create: Tpcb layout must be positive";
      if actions <> 3 then
        invalid_arg "Profile.create: Tpcb requires exactly 3 actions"
  | Zipf _ | Uniform -> ());
  { actions; reads; update_kind; access; magnitude }

let of_params p = create ~actions:p.Dangers_analytic.Params.actions ()

let tpcb_regions ~branches ~tellers_per_branch ~db_size part =
  let tellers = branches * tellers_per_branch in
  let accounts = db_size - branches - tellers in
  if accounts <= 0 then invalid_arg "Profile.tpcb_regions: db too small";
  match part with
  | `Branch b ->
      if b < 0 || b >= branches then invalid_arg "Profile.tpcb_regions: branch";
      Oid.of_int b
  | `Teller i ->
      if i < 0 || i >= tellers then invalid_arg "Profile.tpcb_regions: teller";
      Oid.of_int (branches + i)
  | `Account a ->
      if a < 0 || a >= accounts then invalid_arg "Profile.tpcb_regions: account";
      Oid.of_int (branches + tellers + a)

(* How a sampler picks a transaction's objects, with everything that does
   not depend on the draw worked out once. *)
type keys =
  | Uniform_keys
  | Tpcb_keys of { branches : int; tellers_per_branch : int; accounts : int }
  | Zipf_keys of Rng.Zipf.t

type sampler = { profile : t; db_size : int; keys : keys }

let sampler t ~db_size =
  if t.actions + t.reads > db_size then
    invalid_arg "Profile.sampler: actions exceed db_size";
  let keys =
    match t.access with
    | Uniform -> Uniform_keys
    | Tpcb { branches; tellers_per_branch } ->
        (* The regions fit, with an account to update and [reads] others. *)
        let accounts = db_size - branches - (branches * tellers_per_branch) in
        if accounts < t.reads + 1 then invalid_arg "Profile.sampler: Tpcb db too small";
        Tpcb_keys { branches; tellers_per_branch; accounts }
    | Zipf theta -> Zipf_keys (Rng.Zipf.create ~n:db_size ~theta)
  in
  { profile = t; db_size; keys }

let pick_oids s rng =
  let t = s.profile and db_size = s.db_size in
  let k = t.actions + t.reads in
  match s.keys with
  | Uniform_keys ->
      Rng.sample_without_replacement rng ~n:db_size ~k
      |> Array.map Oid.of_int
  | Tpcb_keys { branches; tellers_per_branch; accounts } ->
      let account = Rng.int rng accounts in
      let branch = Rng.int rng branches in
      let teller = (branch * tellers_per_branch) + Rng.int rng tellers_per_branch in
      let layout = tpcb_regions ~branches ~tellers_per_branch ~db_size in
      let updates =
        [| layout (`Account account); layout (`Teller teller); layout (`Branch branch) |]
      in
      if t.reads = 0 then updates
      else begin
        (* Extra reads come from the account region, distinct from the
           updated account. *)
        let read_oids =
          Rng.sample_without_replacement rng ~n:accounts ~k:(t.reads + 1)
          |> Array.to_list
          |> List.filter (fun a -> a <> account)
          |> (fun l -> List.filteri (fun i _ -> i < t.reads) l)
          |> List.map (fun a -> layout (`Account a))
        in
        Array.append updates (Array.of_list read_oids)
      end
  | Zipf_keys zipf ->
      (* Distinctness by rejection; hotspots make repeats likely, so cap the
         retries per slot and fall back to a uniform draw. *)
      let chosen = Hashtbl.create k in
      let draw_distinct () =
        let rec try_draw attempts =
          let candidate =
            if attempts >= 32 then Rng.int rng db_size else Rng.Zipf.draw zipf rng
          in
          if Hashtbl.mem chosen candidate then try_draw (attempts + 1)
          else begin
            Hashtbl.add chosen candidate ();
            candidate
          end
        in
        try_draw 0
      in
      Array.init k (fun _ -> Oid.of_int (draw_distinct ()))

let make_op t rng oid =
  let increment () =
    let delta = Rng.float rng (2. *. t.magnitude) -. t.magnitude in
    Op.Increment (oid, delta)
  in
  let assign () = Op.Assign (oid, Rng.float rng t.magnitude) in
  match t.update_kind with
  | Assigns -> assign ()
  | Increments -> increment ()
  | Mixed fraction -> if Rng.float rng 1.0 < fraction then increment () else assign ()

let draw s rng =
  let t = s.profile in
  let oids = pick_oids s rng in
  match s.keys with
  | Tpcb_keys _ ->
      (* Updates lead (account, teller, branch), reads follow. *)
      Array.to_list
        (Array.mapi
           (fun i oid -> if i < t.actions then make_op t rng oid else Op.Read oid)
           oids)
  | Uniform_keys | Zipf_keys _ ->
      let ops =
        Array.mapi
          (fun i oid -> if i < t.reads then Op.Read oid else make_op t rng oid)
          oids
      in
      Rng.shuffle rng ops;
      Array.to_list ops

let commutative t =
  match t.update_kind with
  | Increments -> true
  | Assigns | Mixed _ -> false
