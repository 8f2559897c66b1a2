(* Oid, Timestamp, Store, Version_vector tests. *)

module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp
module Fstore = Dangers_storage.Store.Fstore
module Version_vector = Dangers_storage.Version_vector

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Oid --- *)

let test_oid () =
  let o = Oid.of_int 5 in
  checki "roundtrip" 5 (Oid.to_int o);
  checkb "equal" true (Oid.equal o (Oid.of_int 5));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Oid.of_int: negative identifier") (fun () ->
      ignore (Oid.of_int (-1)));
  checki "all size" 10 (Array.length (Oid.all ~db_size:10))

(* --- Timestamp --- *)

let test_timestamp_order () =
  let t1 = Timestamp.make ~counter:1 ~node:0 in
  let t2 = Timestamp.make ~counter:1 ~node:1 in
  let t3 = Timestamp.make ~counter:2 ~node:0 in
  checkb "counter dominates" true (Timestamp.newer t3 ~than:t2);
  checkb "node breaks ties" true (Timestamp.newer t2 ~than:t1);
  checkb "zero oldest" true (Timestamp.newer t1 ~than:Timestamp.zero);
  checkb "irreflexive" false (Timestamp.newer t1 ~than:t1)

let test_clock_monotone () =
  let clock = Timestamp.Clock.create ~node:3 in
  let a = Timestamp.Clock.tick clock in
  let b = Timestamp.Clock.tick clock in
  checkb "ticks increase" true (Timestamp.newer b ~than:a);
  checki "node recorded" 3 (Timestamp.node b)

let test_clock_witness () =
  let clock = Timestamp.Clock.create ~node:0 in
  Timestamp.Clock.witness clock (Timestamp.make ~counter:100 ~node:9);
  let t = Timestamp.Clock.tick clock in
  checkb "tick after witness is newer" true
    (Timestamp.newer t ~than:(Timestamp.make ~counter:100 ~node:9))

let timestamp_total_order_prop =
  QCheck.Test.make ~name:"timestamp: total order laws" ~count:500
    QCheck.(triple (pair small_nat small_nat) (pair small_nat small_nat)
              (pair small_nat small_nat))
    (fun ((c1, n1), (c2, n2), (c3, n3)) ->
      let a = Timestamp.make ~counter:c1 ~node:n1 in
      let b = Timestamp.make ~counter:c2 ~node:n2 in
      let c = Timestamp.make ~counter:c3 ~node:n3 in
      let antisym =
        not (Timestamp.newer a ~than:b && Timestamp.newer b ~than:a)
      in
      let trans =
        (not (Timestamp.newer a ~than:b && Timestamp.newer b ~than:c))
        || Timestamp.newer a ~than:c
      in
      let total =
        Timestamp.equal a b || Timestamp.newer a ~than:b || Timestamp.newer b ~than:a
      in
      antisym && trans && total)

(* The packed word orders like the pair it packs, over the whole range:
   any counter that fits, every node id from [zero]'s -1 to the largest
   a clock accepts. *)
let timestamp_packing_prop =
  let max_counter = max_int lsr Timestamp.node_bits in
  let largest_node = Timestamp.node_bound - 1 in
  let counter =
    QCheck.Gen.(oneof [ small_nat; int_range 0 max_counter; oneofl [ 0; max_counter ] ])
  in
  let node =
    QCheck.Gen.(oneof [ small_nat; int_range (-1) largest_node; oneofl [ -1; largest_node ] ])
  in
  let stamp = QCheck.Gen.(oneof [ pair counter node; return (0, -1) ]) in
  QCheck.Test.make ~name:"timestamp: packed order is lexicographic" ~count:1000
    QCheck.(make ~print:Print.(pair (pair int int) (pair int int))
              (Gen.pair stamp stamp))
    (fun (((c1, n1) as p1), ((c2, n2) as p2)) ->
      let a = Timestamp.make ~counter:c1 ~node:n1 in
      let b = Timestamp.make ~counter:c2 ~node:n2 in
      Int.compare (Timestamp.compare a b) 0 = Int.compare (compare p1 p2) 0
      && Timestamp.counter a = c1 && Timestamp.node a = n1
      && Timestamp.counter b = c2 && Timestamp.node b = n2
      && ((p1 <> (0, -1)) || Timestamp.equal a Timestamp.zero))

let test_clock_node_bound () =
  let largest = Timestamp.node_bound - 1 in
  checki "largest node recorded" largest
    (Timestamp.node (Timestamp.Clock.tick (Timestamp.Clock.create ~node:largest)));
  Alcotest.check_raises "first node past the bound rejected"
    (Invalid_argument "Timestamp.Clock.create: node id at or above node_bound")
    (fun () -> ignore (Timestamp.Clock.create ~node:Timestamp.node_bound))

(* --- Store --- *)

let stamp c n = Timestamp.make ~counter:c ~node:n

let test_store_basic () =
  let s = Fstore.create ~db_size:4 ~init:100. in
  checki "size" 4 (Fstore.db_size s);
  checkf "init value" 100. (Fstore.read s (Oid.of_int 2));
  Fstore.write s (Oid.of_int 2) 50. (stamp 1 0);
  checkf "written" 50. (Fstore.read s (Oid.of_int 2));
  checkb "stamp updated" true (Timestamp.equal (stamp 1 0) (Fstore.stamp s (Oid.of_int 2)))

let test_store_apply_if_newer () =
  let s = Fstore.create ~db_size:1 ~init:0. in
  let o = Oid.of_int 0 in
  (match Fstore.apply_if_newer s o 5. (stamp 5 0) with
  | `Applied -> ()
  | `Stale -> Alcotest.fail "newer must apply");
  (match Fstore.apply_if_newer s o 9. (stamp 3 0) with
  | `Stale -> ()
  | `Applied -> Alcotest.fail "older must be discarded");
  checkf "stale discarded" 5. (Fstore.read s o)

let test_store_convergence_helpers () =
  let a = Fstore.create ~db_size:3 ~init:0. in
  let b = Fstore.create ~db_size:3 ~init:0. in
  checkb "fresh stores equal" true (Fstore.content_equal a b);
  Fstore.write a (Oid.of_int 1) 7. (stamp 1 0);
  checkb "diverged" false (Fstore.content_equal a b);
  Alcotest.check (Alcotest.list Alcotest.int) "divergent oids" [ 1 ]
    (List.map Oid.to_int (Fstore.divergent_oids a b));
  Fstore.overwrite_from b ~src:a;
  checkb "overwrite converges" true (Fstore.content_equal a b);
  let c = Fstore.copy a in
  Fstore.write a (Oid.of_int 0) 1. (stamp 2 0);
  checkb "copy is independent" false (Fstore.content_equal a c)

(* The columnar layout: a float store is its two flat columns plus a
   record, whatever it holds, and a write allocates nothing in it. *)
let test_store_footprint () =
  let n = 10_000 in
  let s = Fstore.create ~db_size:n ~init:0. in
  let words () = Obj.reachable_words (Obj.repr s) in
  let created = words () in
  let bound = (2 * n) + 64 in
  checkb
    (Printf.sprintf "%d words at creation, bound %d" created bound)
    true (created <= bound);
  let clock = Timestamp.Clock.create ~node:1 in
  for i = 0 to n - 1 do
    Fstore.write s (Oid.of_int i) (float_of_int i +. 0.5)
      (Timestamp.Clock.tick clock)
  done;
  checki "unchanged by fresh writes" created (words ());
  checkb "stamp read back" true
    (Timestamp.equal (stamp n 1) (Fstore.stamp s (Oid.of_int (n - 1))))

(* Minor words of [n] calls of [f]. *)
let words_of n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  Gc.minor_words () -. w0

(* A stamp is an immediate int and both columns are flat, so reading a
   stamp, writing, applying an update and ticking or feeding a clock
   allocate nothing. *)
let test_store_words () =
  let n = 1_000 in
  let s = Fstore.create ~db_size:n ~init:0. in
  let clock = Timestamp.Clock.create ~node:2 in
  let oid i = Oid.of_int i in
  let zero = Alcotest.float 0. in
  Alcotest.check zero "Fstore.stamp" 0.
    (words_of n (fun i -> ignore (Sys.opaque_identity (Fstore.stamp s (oid i)))));
  Alcotest.check zero "Clock.tick" 0.
    (words_of n (fun _ -> ignore (Sys.opaque_identity (Timestamp.Clock.tick clock))));
  let ts = Timestamp.Clock.tick clock in
  Alcotest.check zero "Fstore.write" 0.
    (words_of n (fun i -> Fstore.write s (oid i) 1.5 ts));
  let newer = Timestamp.make ~counter:(Timestamp.counter ts + 1) ~node:3 in
  Alcotest.check zero "Clock.witness" 0.
    (words_of n (fun _ -> Timestamp.Clock.witness clock newer));
  Alcotest.check zero "Fstore.apply_if_newer (applied, then stale)" 0.
    (words_of n (fun i ->
         ignore (Sys.opaque_identity (Fstore.apply_if_newer s (oid i) 2.5 newer));
         ignore (Sys.opaque_identity (Fstore.apply_if_newer s (oid i) 3.5 ts))));
  checkf "applied" 2.5 (Fstore.read s (oid (n - 1)))

(* The same functor over a boxed value type. *)
module Sstore = Dangers_storage.Store.Make (struct
  type t = string

  let equal = String.equal
  let pp = Format.pp_print_string
end)

let test_boxed_store_roundtrip () =
  let a = Sstore.create ~db_size:4 ~init:"v" in
  let seen = ref [] in
  Sstore.on_write a (fun oid value ts ->
      seen := (Oid.to_int oid, value, Timestamp.counter ts) :: !seen);
  Sstore.write a (Oid.of_int 1) "x" (stamp 1 0);
  let b = Sstore.copy a in
  checkb "copy equal" true (Sstore.content_equal a b);
  Sstore.write b (Oid.of_int 2) "y" (stamp 2 1);
  checkb "copy is independent" true (String.equal "v" (Sstore.read a (Oid.of_int 2)));
  Alcotest.check (Alcotest.list Alcotest.int) "divergent oids" [ 2 ]
    (List.map Oid.to_int (Sstore.divergent_oids a b));
  (match Sstore.apply_if_newer b (Oid.of_int 3) "z" (stamp 3 1) with
  | `Applied -> ()
  | `Stale -> Alcotest.fail "newer must apply");
  Sstore.overwrite_from a ~src:b;
  checkb "overwrite converges" true (Sstore.content_equal a b);
  checkb "stamp copied" true
    (Timestamp.equal (stamp 2 1) (Sstore.stamp a (Oid.of_int 2)));
  let observed = Alcotest.(list (triple int string int)) in
  Alcotest.check observed "observers see the write and the overwrite, not the copy"
    [ (1, "x", 1); (0, "v", 0); (1, "x", 1); (2, "y", 2); (3, "z", 3) ]
    (List.rev !seen)

(* --- Version vector --- *)

let test_vv_basics () =
  let v = Version_vector.(increment (increment empty ~node:1) ~node:1) in
  checki "component" 2 (Version_vector.get v ~node:1);
  checki "missing component" 0 (Version_vector.get v ~node:5);
  Alcotest.check (Alcotest.list Alcotest.int) "nodes" [ 1 ] (Version_vector.nodes v)

let test_vv_causality () =
  let a = Version_vector.of_list [ (0, 2); (1, 1) ] in
  let b = Version_vector.of_list [ (0, 1); (1, 1) ] in
  let c = Version_vector.of_list [ (0, 1); (1, 2) ] in
  let is expected actual = checkb "ordering" true (expected = actual) in
  is Version_vector.Dominates (Version_vector.compare_causal a b);
  is Version_vector.Dominated (Version_vector.compare_causal b a);
  is Version_vector.Concurrent (Version_vector.compare_causal a c);
  is Version_vector.Equal (Version_vector.compare_causal a a)

let test_vv_of_list_validation () =
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Version_vector.of_list: duplicate node") (fun () ->
      ignore (Version_vector.of_list [ (1, 1); (1, 2) ]))

let vv_gen =
  QCheck.Gen.(
    map Version_vector.of_list
      (map
         (fun counts -> List.mapi (fun node n -> (node, n)) counts)
         (list_size (int_range 0 5) (int_range 0 4))))

let vv_arbitrary = QCheck.make ~print:(fun v ->
    Format.asprintf "%a" Version_vector.pp v) vv_gen

let vv_lattice_props =
  let open QCheck in
  [
    Test.make ~name:"vv: merge commutative" ~count:300 (pair vv_arbitrary vv_arbitrary)
      (fun (a, b) -> Version_vector.(equal (merge a b) (merge b a)));
    Test.make ~name:"vv: merge associative" ~count:300
      (triple vv_arbitrary vv_arbitrary vv_arbitrary)
      (fun (a, b, c) ->
        Version_vector.(equal (merge a (merge b c)) (merge (merge a b) c)));
    Test.make ~name:"vv: merge idempotent" ~count:300 vv_arbitrary
      (fun a -> Version_vector.(equal (merge a a) a));
    Test.make ~name:"vv: merge dominates both" ~count:300 (pair vv_arbitrary vv_arbitrary)
      (fun (a, b) ->
        let m = Version_vector.merge a b in
        Version_vector.dominates_or_equal m a
        && Version_vector.dominates_or_equal m b);
  ]

let suite =
  [
    Alcotest.test_case "oid" `Quick test_oid;
    Alcotest.test_case "timestamp order" `Quick test_timestamp_order;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "clock witness" `Quick test_clock_witness;
    QCheck_alcotest.to_alcotest timestamp_total_order_prop;
    QCheck_alcotest.to_alcotest timestamp_packing_prop;
    Alcotest.test_case "clock node bound" `Quick test_clock_node_bound;
    Alcotest.test_case "store basics" `Quick test_store_basic;
    Alcotest.test_case "store apply_if_newer" `Quick test_store_apply_if_newer;
    Alcotest.test_case "store convergence helpers" `Quick test_store_convergence_helpers;
    Alcotest.test_case "store footprint" `Quick test_store_footprint;
    Alcotest.test_case "store words" `Quick test_store_words;
    Alcotest.test_case "boxed store round-trip" `Quick test_boxed_store_roundtrip;
    Alcotest.test_case "version vector basics" `Quick test_vv_basics;
    Alcotest.test_case "version vector causality" `Quick test_vv_causality;
    Alcotest.test_case "version vector validation" `Quick test_vv_of_list_validation;
  ]
  @ List.map QCheck_alcotest.to_alcotest vv_lattice_props
