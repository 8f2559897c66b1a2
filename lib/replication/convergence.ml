module Timestamp = Dangers_storage.Timestamp
module Version_vector = Dangers_storage.Version_vector
module Oid = Dangers_storage.Oid

module Stamp_set = Set.Make (struct
  type t = Timestamp.t

  let compare = Timestamp.compare
end)

module Notes = struct
  module Note_set = Set.Make (struct
    type t = Timestamp.t * string

    let compare (s1, b1) (s2, b2) =
      match Timestamp.compare s1 s2 with
      | 0 -> String.compare b1 b2
      | order -> order
  end)

  (* A register's [lineage] is the ids whose values flowed into the current
     value: an update's lineage is itself plus the lineage of the value it
     overwrote locally. When two registers meet and the newer stamp wins,
     loser-lineage ids outside the winner's lineage were overwritten
     *concurrently* — their effects vanish — and are recorded in [lost].
     An id can later turn out to have survived through another replica's
     lineage, so the final count subtracts the winner's lineage. *)
  type register = {
    mutable value : float;
    mutable stamp : Timestamp.t;
    mutable lineage : Stamp_set.t;
    mutable lost : Stamp_set.t;
  }

  type t = {
    clock : Timestamp.Clock.t;
    mutable note_set : Note_set.t;
    registers : (string, register) Hashtbl.t;
    mutable issued : int;
  }

  let create ~site =
    {
      clock = Timestamp.Clock.create ~node:site;
      note_set = Note_set.empty;
      registers = Hashtbl.create 16;
      issued = 0;
    }

  let append t body =
    let stamp = Timestamp.Clock.tick t.clock in
    t.note_set <- Note_set.add (stamp, body) t.note_set

  let register_for t key =
    match Hashtbl.find_opt t.registers key with
    | Some r -> r
    | None ->
        let r =
          {
            value = 0.;
            stamp = Timestamp.zero;
            lineage = Stamp_set.empty;
            lost = Stamp_set.empty;
          }
        in
        Hashtbl.add t.registers key r;
        r

  let replace t ~key ~value =
    let r = register_for t key in
    let stamp = Timestamp.Clock.tick t.clock in
    t.issued <- t.issued + 1;
    r.value <- value;
    r.stamp <- stamp;
    r.lineage <- Stamp_set.add stamp r.lineage

  let notes t = Note_set.elements t.note_set |> List.map snd

  let merge_register ra rb =
    let winner, loser =
      if Timestamp.newer ra.stamp ~than:rb.stamp then (ra, rb) else (rb, ra)
    in
    let newly_lost = Stamp_set.diff loser.lineage winner.lineage in
    let lost = Stamp_set.union (Stamp_set.union ra.lost rb.lost) newly_lost in
    let value = winner.value and stamp = winner.stamp and lineage = winner.lineage in
    List.iter
      (fun r ->
        r.value <- value;
        r.stamp <- stamp;
        r.lineage <- lineage;
        r.lost <- lost)
      [ ra; rb ]

  let exchange a b =
    let union = Note_set.union a.note_set b.note_set in
    a.note_set <- union;
    b.note_set <- union;
    (* Lamport hygiene so later local updates outstamp whatever was seen. *)
    Note_set.iter (fun (stamp, _) ->
        Timestamp.Clock.witness a.clock stamp;
        Timestamp.Clock.witness b.clock stamp)
      union;
    let keys = Hashtbl.create 16 in
    let collect t = Hashtbl.iter (fun key _ -> Hashtbl.replace keys key ()) t.registers in
    collect a;
    collect b;
    Hashtbl.iter
      (fun key () ->
        let ra = register_for a key and rb = register_for b key in
        Timestamp.Clock.witness a.clock rb.stamp;
        Timestamp.Clock.witness b.clock ra.stamp;
        merge_register ra rb)
      keys

  let registers_equal a b =
    let check t other =
      Hashtbl.fold
        (fun key r acc ->
          acc
          &&
          match Hashtbl.find_opt other.registers key with
          | Some r' -> Float.equal r.value r'.value && Timestamp.equal r.stamp r'.stamp
          | None -> Timestamp.equal r.stamp Timestamp.zero)
        t.registers true
    in
    check a b && check b a

  let converged = function
    | [] | [ _ ] -> true
    | first :: rest ->
        List.for_all
          (fun t ->
            Note_set.equal first.note_set t.note_set && registers_equal first t)
          rest

  let lost_updates replicas =
    (* Per key: everything any replica recorded as lost, minus ids that
       turned out to survive through the global winner's lineage. *)
    let keys = Hashtbl.create 16 in
    List.iter
      (fun t -> Hashtbl.iter (fun key _ -> Hashtbl.replace keys key ()) t.registers)
      replicas;
    Hashtbl.fold
      (fun key () total ->
        let lost, winner =
          List.fold_left
            (fun (lost, winner) t ->
              match Hashtbl.find_opt t.registers key with
              | None -> (lost, winner)
              | Some r ->
                  let lost = Stamp_set.union lost r.lost in
                  let winner =
                    match winner with
                    | None -> Some r
                    | Some w ->
                        if Timestamp.newer r.stamp ~than:w.stamp then Some r
                        else Some w
                  in
                  (lost, winner))
            (Stamp_set.empty, None) replicas
        in
        match winner with
        | None -> total
        | Some w -> total + Stamp_set.cardinal (Stamp_set.diff lost w.lineage))
      keys 0

  let updates_issued replicas =
    List.fold_left (fun acc t -> acc + t.issued) 0 replicas
end

module Access = struct
  type record = {
    mutable value : float;
    mutable vv : Version_vector.t;
    mutable stamp : Timestamp.t; (* tie-break for concurrent versions *)
  }

  type t = {
    site : int;
    clock : Timestamp.Clock.t;
    records : record array;
    mutable conflicts : int;
  }

  let create ~site ~db_size =
    if db_size <= 0 then invalid_arg "Access.create: db_size must be positive";
    {
      site;
      clock = Timestamp.Clock.create ~node:site;
      records =
        Array.init db_size (fun _ ->
            { value = 0.; vv = Version_vector.empty; stamp = Timestamp.zero });
      conflicts = 0;
    }

  let record t oid = t.records.(Oid.to_int oid)

  let update t oid value =
    let r = record t oid in
    r.value <- value;
    r.vv <- Version_vector.increment r.vv ~node:t.site;
    r.stamp <- Timestamp.Clock.tick t.clock

  let read t oid = (record t oid).value
  let vector t oid = (record t oid).vv

  let exchange a b =
    if Array.length a.records <> Array.length b.records then
      invalid_arg "Access.exchange: different database sizes";
    let conflicts_here = ref 0 in
    Array.iteri
      (fun i ra ->
        let rb = b.records.(i) in
        Timestamp.Clock.witness a.clock rb.stamp;
        Timestamp.Clock.witness b.clock ra.stamp;
        let copy ~src ~dst =
          dst.value <- src.value;
          dst.stamp <- src.stamp
        in
        (match Version_vector.compare_causal ra.vv rb.vv with
        | Version_vector.Equal -> ()
        | Version_vector.Dominates -> copy ~src:ra ~dst:rb
        | Version_vector.Dominated -> copy ~src:rb ~dst:ra
        | Version_vector.Concurrent ->
            incr conflicts_here;
            if Timestamp.newer ra.stamp ~than:rb.stamp then copy ~src:ra ~dst:rb
            else copy ~src:rb ~dst:ra);
        let merged = Version_vector.merge ra.vv rb.vv in
        ra.vv <- merged;
        rb.vv <- merged)
      a.records;
    a.conflicts <- a.conflicts + !conflicts_here;
    b.conflicts <- b.conflicts + !conflicts_here;
    !conflicts_here

  let converged = function
    | [] | [ _ ] -> true
    | first :: rest ->
        List.for_all
          (fun t ->
            Array.length t.records = Array.length first.records
            && Array.for_all2
                 (fun r r' ->
                   Float.equal r.value r'.value
                   && Version_vector.equal r.vv r'.vv)
                 first.records t.records)
          rest

  let conflicts_reported t = t.conflicts
end
