module type VALUE = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Make (Value : VALUE) = struct
  type value = Value.t

  (* One column per field: with [Value.t = float] both columns are flat
     arrays, so a store is two blocks whatever its size. *)
  type t = {
    values : value array;
    stamps : Timestamp.t array;
    mutable observers : (Oid.t -> value -> Timestamp.t -> unit) list;
  }

  let create ~db_size ~init =
    if db_size <= 0 then invalid_arg "Store.create: db_size must be positive";
    {
      values = Array.make db_size init;
      stamps = Array.make db_size Timestamp.zero;
      observers = [];
    }

  let db_size t = Array.length t.values
  let read t oid = t.values.(Oid.to_int oid)
  let stamp t oid = t.stamps.(Oid.to_int oid)
  let on_write t f = t.observers <- f :: t.observers

  let notify t oid value ts =
    match t.observers with
    | [] -> ()
    | observers -> List.iter (fun f -> f oid value ts) observers

  let write t oid value ts =
    let i = Oid.to_int oid in
    t.values.(i) <- value;
    t.stamps.(i) <- ts;
    notify t oid value ts

  let apply_if_newer t oid value ts =
    if Timestamp.newer ts ~than:t.stamps.(Oid.to_int oid) then begin
      write t oid value ts;
      `Applied
    end
    else `Stale

  let iter t f =
    for i = 0 to db_size t - 1 do
      f (Oid.of_int i) t.values.(i) t.stamps.(i)
    done

  let fold t ~init ~f =
    let acc = ref init in
    iter t (fun oid value ts -> acc := f !acc oid value ts);
    !acc

  let check_same_size a b name =
    if db_size a <> db_size b then
      invalid_arg (name ^ ": stores of different sizes")

  let divergent_oids a b =
    check_same_size a b "Store.divergent_oids";
    let diffs = ref [] in
    for i = db_size a - 1 downto 0 do
      if
        not
          (Timestamp.equal a.stamps.(i) b.stamps.(i)
          && Value.equal a.values.(i) b.values.(i))
      then diffs := Oid.of_int i :: !diffs
    done;
    !diffs

  let content_equal a b =
    db_size a = db_size b && divergent_oids a b = []

  let copy t =
    { values = Array.copy t.values; stamps = Array.copy t.stamps; observers = [] }

  let overwrite_from t ~src =
    check_same_size t src "Store.overwrite_from";
    let n = db_size t in
    Array.blit src.values 0 t.values 0 n;
    Array.blit src.stamps 0 t.stamps 0 n;
    match t.observers with
    | [] -> ()
    | _ ->
        for i = 0 to n - 1 do
          notify t (Oid.of_int i) t.values.(i) t.stamps.(i)
        done
end

module Float_value = struct
  type t = float

  let equal = Float.equal
  let pp ppf v = Format.fprintf ppf "%g" v
end

module Fstore = Make (Float_value)
