(* A replicated name service — one of §6's everyday replicated databases
   ("bibles, phone books, check books, mail systems, name servers").

   This example uses the storage substrate directly, instantiating the
   store functor at string values: each site holds a replica of the
   name -> address directory, binds names locally with Lamport-stamped
   writes, and exchanges lazy updates. Timestamped replace gives
   convergence (every site ends with the same directory) but not
   serializability: concurrent re-bindings of one name lose all but the
   newest — fine for a directory, fatal for a checkbook, which is the
   section's point.

   Run with: dune exec examples/name_service.exe *)

module Timestamp = Dangers_storage.Timestamp
module Oid = Dangers_storage.Oid

module String_value = struct
  type t = string

  let equal = String.equal
  let pp = Format.pp_print_string
end

module Directory = Dangers_storage.Store.Make (String_value)

(* The directory maps host ids (dense ints) to addresses. *)
let hosts = [| "db.example"; "mail.example"; "www.example"; "cache.example" |]

type site = {
  name : string;
  store : Directory.t;
  clock : Timestamp.Clock.t;
  mutable outbound : (Oid.t * string * Timestamp.t) list;
}

let make_site index name =
  {
    name;
    store = Directory.create ~db_size:(Array.length hosts) ~init:"unbound";
    clock = Timestamp.Clock.create ~node:index;
    outbound = [];
  }

let bind site host address =
  let oid = Oid.of_int host in
  let stamp = Timestamp.Clock.tick site.clock in
  Directory.write site.store oid address stamp;
  site.outbound <- (oid, address, stamp) :: site.outbound;
  Printf.printf "%-10s binds %-13s -> %s\n" site.name hosts.(host) address

(* Lazy exchange: ship both sites' accumulated updates both ways; stale
   updates are discarded by the Thomas write rule. *)
let exchange a b =
  let apply site (oid, address, stamp) =
    Timestamp.Clock.witness site.clock stamp;
    ignore (Directory.apply_if_newer site.store oid address stamp)
  in
  List.iter (apply b) (List.rev a.outbound);
  List.iter (apply a) (List.rev b.outbound)

let dump site =
  Printf.printf "%s:\n" site.name;
  Directory.iter site.store (fun oid address stamp ->
      Printf.printf "  %-13s -> %-16s (%s)\n"
        hosts.(Oid.to_int oid)
        address
        (Format.asprintf "%a" Timestamp.pp stamp))

let () =
  let seattle = make_site 0 "seattle" in
  let boston = make_site 1 "boston" in
  let zurich = make_site 2 "zurich" in

  (* Independent updates at different sites: no conflict, all survive. *)
  bind seattle 0 "10.0.0.5";
  bind boston 1 "10.1.7.2";

  (* A concurrent re-binding of the same name at two sites: the newest
     timestamp will win everywhere, the other binding is lost. *)
  bind seattle 2 "10.0.9.9";
  bind zurich 2 "10.2.4.4";

  Printf.printf "\nexchanging updates pairwise until quiet...\n\n";
  exchange seattle boston;
  exchange boston zurich;
  exchange seattle zurich;
  exchange seattle boston;

  List.iter dump [ seattle; boston; zurich ];

  let converged =
    Directory.content_equal seattle.store boston.store
    && Directory.content_equal boston.store zurich.store
  in
  Printf.printf "\nall replicas converged: %b\n" converged;
  Printf.printf
    "note the www.example binding: one of the two concurrent updates was \
     silently discarded - convergence without serializability, which is \
     acceptable for a name service and disastrous for a bank account.\n"
