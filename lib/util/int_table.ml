include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Fibonacci hashing: the multiply spreads every key bit into the high
     half, and the shift brings those bits down to where [Hashtbl] masks
     its bucket index. Keys that differ only above the low bits, such as
     [tid * nodes + home] at one home, still spread over the buckets. *)
  let hash key = (key * 0x9E3779B97F4A7C1) lsr 21
end)
