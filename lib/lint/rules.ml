(* The shipped rule set. Each check walks one unit's typedtree; matching
   is on resolved paths (so [open Random] or local aliases of the banned
   modules are still caught when the compiler resolved them to the same
   path) and, for D3, on the instantiated type of the polymorphic
   identifier. *)

let finding ~rule ~file ~loc fmt =
  Printf.ksprintf (fun message -> Finding.make ~rule ~file ~loc ~message ()) fmt

(* --- D1: banned nondeterministic calls --- *)

(* ident -> what to use instead. *)
let d1_banned =
  [
    ("Random.self_init", "seed explicitly (Dangers_util.Rng.create ~seed)");
    ("Random.init", "use a Dangers_util.Rng state, not the global Random");
    ("Random.int", "use a Dangers_util.Rng state, not the global Random");
    ("Random.full_int", "use a Dangers_util.Rng state, not the global Random");
    ("Random.float", "use a Dangers_util.Rng state, not the global Random");
    ("Random.bool", "use a Dangers_util.Rng state, not the global Random");
    ("Random.bits", "use a Dangers_util.Rng state, not the global Random");
    ("Unix.gettimeofday", "use the simulated clock (Engine.now)");
    ("Unix.time", "use the simulated clock (Engine.now)");
    ("Sys.time", "use the simulated clock (Engine.now)");
    ("Hashtbl.hash", "hash layout varies across versions/flags; derive keys \
                      structurally");
    ("Hashtbl.seeded_hash", "hash layout varies across versions/flags; \
                             derive keys structurally");
  ]

let d1 =
  {
    Rule.id = "D1";
    title = "no nondeterministic calls in simulator/replication/core code";
    rationale =
      "every reproduced number rests on byte-identical fixed-seed runs; \
       wall clocks, the global Random state, and value hashing all vary \
       across runs, hosts, or compiler versions";
    in_scope =
      Rule.path_has_prefix [ "lib/sim/"; "lib/replication/"; "lib/core/" ];
    check =
      Rule.Unit_check
        (fun ~file str ->
        let acc = ref [] in
        Rule.iter_exprs str (fun e ->
            match e.exp_desc with
            | Texp_ident (path, _, _) -> (
                let name = Rule.ident_name path in
                match List.assoc_opt name d1_banned with
                | Some hint ->
                    acc :=
                      finding ~rule:"D1" ~file ~loc:e.exp_loc
                        "banned nondeterministic call %s: %s" name hint
                      :: !acc
                | None -> ())
            | _ -> ());
        List.rev !acc);
  }

(* --- D2: unordered hashtable iteration feeding export paths --- *)

(* Modules whose output is serialized or rendered: iteration order there
   is bucket order unless the keys go through a sort first. *)
let d2_modules =
  [
    "export.ml"; "trace_export.ml"; "metrics.ml"; "warnings.ml"; "json.ml";
    "repl_stats.ml"; "bench_file.ml"; "profiling.ml"; "timeseries.ml";
    "prometheus.ml"; "monitor.ml";
  ]

let sortish name =
  match String.rindex_opt name '.' with
  | Some i ->
      let last = String.sub name (i + 1) (String.length name - i - 1) in
      String.length last >= 4 && String.sub last 0 4 = "sort"
  | None -> String.length name >= 4 && String.sub name 0 4 = "sort"

(* An application is a "sorting context" when its head is a sort, or when
   it is a pipeline ([|>]/[@@]) one of whose operands heads a sort — so
   both [List.sort cmp (Hashtbl.fold ...)] and
   [Hashtbl.fold ... |> List.sort cmp] count as ordered. *)
let enters_sorted_context (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
      match Rule.head_ident f with
      | Some name when sortish name -> true
      | Some ("|>" | "@@") ->
          List.exists
            (fun (_, arg) ->
              match arg with
              | Some a -> (
                  match Rule.head_ident a with
                  | Some name -> sortish name
                  | None -> false)
              | None -> false)
            args
      | _ -> false)
  | _ -> false

let d2 =
  {
    Rule.id = "D2";
    title = "no unordered Hashtbl.iter/fold in export or snapshot modules";
    rationale =
      "hashtable iteration is bucket order — it depends on insertion \
       history and the hash function, so serialized output built from it \
       is not reproducible; sort the keys first";
    in_scope = Rule.basename_in d2_modules;
    check =
      Rule.Unit_check
        (fun ~file str ->
        let acc = ref [] in
        let depth = ref 0 in
        let open Tast_iterator in
        let expr sub (e : Typedtree.expression) =
          let sorted = enters_sorted_context e in
          if sorted then incr depth;
          (match e.exp_desc with
          | Texp_ident (path, _, _) -> (
              match Rule.ident_name path with
              | "Hashtbl.iter" ->
                  acc :=
                    finding ~rule:"D2" ~file ~loc:e.exp_loc
                      "Hashtbl.iter visits buckets in hash order; iterate \
                       sorted keys (or suppress if the body is \
                       order-insensitive)"
                    :: !acc
              | "Hashtbl.fold" when !depth = 0 ->
                  acc :=
                    finding ~rule:"D2" ~file ~loc:e.exp_loc
                      "Hashtbl.fold result is in bucket order; sort it in \
                       the same expression (List.sort ... or |> List.sort \
                       ...)"
                    :: !acc
              | _ -> ())
          | _ -> ());
          default_iterator.expr sub e;
          if sorted then decr depth
        in
        let it = { default_iterator with expr } in
        it.structure it str;
        List.rev !acc);
  }

(* --- D3: polymorphic comparison at float --- *)

let d3_polymorphic =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.min"; "Stdlib.max" ]

let rec mentions_float ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.name p = "float"
  | Tconstr (p, args, _) ->
      (match Path.name p with
      | "option" | "list" | "array" | "ref" -> List.exists mentions_float args
      | _ -> false)
  | Ttuple ts -> List.exists mentions_float ts
  | _ -> false

let d3 =
  {
    Rule.id = "D3";
    title = "no polymorphic =/<>/compare/min/max on floats in library code";
    rationale =
      "polymorphic comparison on floats boxes, and its NaN semantics \
       (nan = nan is false, compare nan nan is 0) silently disagree \
       between the two forms; stats must use Float.compare/Float.equal \
       so degenerate inputs fail loudly or order totally";
    in_scope = Rule.path_has_prefix [ "lib/" ];
    check =
      Rule.Unit_check
        (fun ~file str ->
        let acc = ref [] in
        Rule.iter_exprs str (fun e ->
            match e.exp_desc with
            | Texp_ident (path, _, _)
              when List.mem (Path.name path) d3_polymorphic
                   && Rule.is_stdlib path -> (
                match Types.get_desc e.exp_type with
                | Tarrow (_, t1, _, _) when mentions_float t1 ->
                    acc :=
                      finding ~rule:"D3" ~file ~loc:e.exp_loc
                        "polymorphic %s instantiated at a float-bearing \
                         type; use Float.equal/Float.compare (explicit \
                         NaN order)"
                        (Rule.ident_name path)
                      :: !acc
                | _ -> ())
            | _ -> ());
        List.rev !acc);
  }

(* --- R1: unguarded module-level mutable state --- *)

let r1_mutable_makers =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Array.make"; "Bytes.create"; "Bytes.make"; "Weak.create";
  ]

let r1_guarded_makers = [ "Atomic.make"; "Mutex.create"; "Domain.DLS.new_key" ]

let binding_name (vb : Typedtree.value_binding) =
  (* A type-constrained [let x : t = e] elaborates to an aliased
     pattern, so look through the alias too. *)
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
  | _ -> "_"

(* Sweep workers run tasks on their own domains: a plain ref or table at
   module level is shared unsynchronized state. A structure counts as
   mutex-guarded when it binds a Mutex.t at its own top level (the
   Warnings pattern: every access section takes the lock). *)
let r1 =
  let rec check_structure ~file (str : Typedtree.structure) acc =
    let top_binding_head (vb : Typedtree.value_binding) =
      Rule.head_ident vb.vb_expr
    in
    let has_mutex =
      List.exists
        (fun (item : Typedtree.structure_item) ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
              List.exists
                (fun vb -> top_binding_head vb = Some "Mutex.create")
                vbs
          | _ -> false)
        str.str_items
    in
    List.fold_left
      (fun acc (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) when not has_mutex ->
            List.fold_left
              (fun acc (vb : Typedtree.value_binding) ->
                let flag what =
                  finding ~rule:"R1" ~file ~loc:vb.vb_loc
                    "module-level mutable state '%s' (%s) is shared across \
                     sweep worker domains; use Atomic, a Mutex-guarded \
                     module, or Domain.DLS"
                    (binding_name vb) what
                  :: acc
                in
                match vb.vb_expr.exp_desc with
                | Texp_lazy _ -> flag "lazy: forcing races across domains"
                | Texp_apply _ -> (
                    match Rule.head_ident vb.vb_expr with
                    | Some name when List.mem name r1_guarded_makers -> acc
                    | Some name when List.mem name r1_mutable_makers ->
                        flag name
                    | _ -> acc)
                | _ -> acc)
              acc vbs
        | Tstr_module mb -> check_module_expr ~file mb.mb_expr acc
        | Tstr_recmodule mbs ->
            List.fold_left
              (fun acc (mb : Typedtree.module_binding) ->
                check_module_expr ~file mb.mb_expr acc)
              acc mbs
        | Tstr_include incl -> check_module_expr ~file incl.incl_mod acc
        | _ -> acc)
      acc str.str_items
  and check_module_expr ~file (me : Typedtree.module_expr) acc =
    match me.mod_desc with
    | Tmod_structure str -> check_structure ~file str acc
    | Tmod_constraint (me, _, _, _) -> check_module_expr ~file me acc
    | Tmod_functor (_, me) -> check_module_expr ~file me acc
    | _ -> acc
  in
  {
    Rule.id = "R1";
    title = "no unguarded module-level mutable state in task-pool-reachable \
             code";
    rationale =
      "Runner.Task_pool runs tasks on separate domains; module-level \
       refs, tables, and lazies are cross-domain shared state — a data \
       race at worst, a nondeterministic result at best";
    in_scope = Rule.path_has_prefix [ "lib/" ];
    check =
      Rule.Unit_check
        (fun ~file str -> List.rev (check_structure ~file str []));
  }

(* --- P1: silently partial functions --- *)

let p1_partials =
  [
    ("List.hd", "match on the list and fail with a labelled invalid_arg");
    ("List.tl", "match on the list and fail with a labelled invalid_arg");
    ("List.nth", "pattern match, or keep an array if indexing is needed");
    ("Option.get", "match, or Option.value with an explicit default");
  ]

let p1 =
  {
    Rule.id = "P1";
    title = "no List.hd/List.tl/List.nth/Option.get in library code";
    rationale =
      "these raise a context-free Failure/Invalid_argument from deep in a \
       run; library code must fail with a message that names the caller \
       and the broken precondition";
    in_scope = Rule.path_has_prefix [ "lib/" ];
    check =
      Rule.Unit_check
        (fun ~file str ->
        let acc = ref [] in
        Rule.iter_exprs str (fun e ->
            match e.exp_desc with
            | Texp_ident (path, _, _) -> (
                let name = Rule.ident_name path in
                match List.assoc_opt name p1_partials with
                | Some hint ->
                    acc :=
                      finding ~rule:"P1" ~file ~loc:e.exp_loc
                        "partial function %s: %s" name hint
                      :: !acc
                | None -> ())
            | _ -> ());
        List.rev !acc);
  }

(* --- DR1–DR4: cross-domain data races (whole-program, two-phase) --- *)

(* The interprocedural rules look at everything the build produces:
   library code, the CLI drivers in bin/, and the benchmark drivers in
   bench/ — Domain.spawn in a driver races exactly like one in a
   library. *)
let dr_scope = Rule.path_has_prefix [ "lib/"; "bin/"; "bench/" ]

let dr1 =
  {
    Rule.id = "DR1";
    title = "no unsynchronized mutable state crossing a domain boundary";
    rationale =
      "a closure handed to Domain.spawn/Thread.create or a pool runs \
       concurrently with its creator; any ref, array, table, or mutable \
       field it shares without Atomic/Mutex/DLS is a data race — the \
       multicore analogue of the paper's unsynchronized eager \
       replication";
    in_scope = dr_scope;
    check = Rule.Program_check Callgraph.dr1;
  }

let dr2 =
  {
    Rule.id = "DR2";
    title = "no Atomic.set built from Atomic.get of the same atomic";
    rationale =
      "Atomic.set a (f (Atomic.get a)) is two atomic operations with a \
       window between them: concurrent increments are lost exactly like \
       unsynchronized replica updates; use fetch_and_add or a \
       compare_and_set retry loop";
    in_scope = dr_scope;
    check =
      Rule.Program_check (fun g -> Callgraph.local_findings g ~rule:"DR2");
  }

let dr3 =
  {
    Rule.id = "DR3";
    title = "mutex discipline: balanced lock/unlock, no raise or block \
             while holding";
    rationale =
      "a lock left held on one branch, released twice in a loop, or held \
       across a raise/join/sleep turns a race-free module into a \
       deadlock or a serialization cliff; pair every lock with an unlock \
       on every path, or use Fun.protect/Mutex.protect";
    in_scope = dr_scope;
    check =
      Rule.Program_check (fun g -> Callgraph.local_findings g ~rule:"DR3");
  }

let dr4 =
  {
    Rule.id = "DR4";
    title = "no module-level mutable state reachable from both a crossing \
             closure and top-level code";
    rationale =
      "state touched by a spawned domain and by ordinary callers is \
       shared even if each side looks single-threaded locally; the race \
       only fires when the pool is enabled, which is exactly when it is \
       hardest to debug";
    in_scope = dr_scope;
    check = Rule.Program_check Callgraph.dr4;
  }

let all = [ d1; d2; d3; r1; p1; dr1; dr2; dr3; dr4 ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun r -> r.Rule.id = id) all

let ids () = List.map (fun r -> r.Rule.id) all
