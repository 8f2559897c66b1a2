(* Phase 1 of the interprocedural pass: reduce one compilation unit's
   typedtree to the facts the whole-program rules need — the mutable
   cells it defines, and per top-level binding the global values it
   uses, the domain-crossing closures it creates, and what those
   closures capture. DR2 (atomic read-modify-write) and DR3 (mutex
   discipline) are purely intraprocedural, so they are decided here too
   and carried as pre-computed findings. *)

type access_kind = Mention | Read | Write

let kind_rank = function Mention -> 0 | Read -> 1 | Write -> 2
let strongest a b = if kind_rank a >= kind_rank b then a else b

type cell = {
  c_name : string;  (** qualified within the module, e.g. ["per_key"] *)
  c_kind : string;  (** allocation kind, e.g. ["Hashtbl.create"] *)
  c_guard : Mutability.guard;
  c_line : int;
  c_col : int;
}

(* One use of a value defined outside this binding: a call when it
   resolves to a function, a cell access when it resolves to a
   module-level mutable. Resolution happens in phase 2. *)
type use = {
  u_hint : string option;  (** library slug from the mangled path *)
  u_name : string;  (** [Module.binding] *)
  u_kind : access_kind;
  u_guarded : bool;  (** under a held lock, or an Atomic/DLS operation *)
  u_line : int;
  u_col : int;
}

(* A mutable value defined outside a domain-crossing closure but
   accessed inside it. *)
type capture = {
  p_name : string;
  p_kind : string;  (** maker kind for locals, [""] for parameters *)
  p_sort : [ `Local | `Param ];
  p_access : access_kind;
  p_line : int;
  p_col : int;
}

type site = {
  t_target : string;  (** crossing entry point, e.g. ["Domain.spawn"] *)
  t_line : int;
  t_col : int;
  mutable t_captures : capture list;
  mutable t_uses : use list;
}

type binding = {
  b_name : string;
  b_line : int;
  mutable b_uses : use list;  (** uses outside any crossing closure *)
  mutable b_sites : site list;
}

type t = {
  s_path : string;
  s_lib : string;
  s_module : string;
  s_cells : cell list;
  s_bindings : binding list;
  s_findings : Finding.t list;  (** DR2/DR3, decided intraprocedurally *)
}

(* --- walk state --- *)

type local_info = {
  l_maker : Mutability.maker option;
  l_fn : Typedtree.expression option;  (** lambda body for call-by-name *)
  l_param : bool;
  l_gen : int;
}

type state = {
  file : string;
  self_lib : string;
  self_mod : string;
  mutable gen : int;
  locals : (Ident.t, local_info) Hashtbl.t;
  locks : (string, int) Hashtbl.t;  (** mutex key -> balance *)
  mutable protect_depth : int;
  mutable try_depth : int;
  mutable site : (site * int) option;  (** active crossing site + entry gen *)
  mutable inlined : Ident.t list;  (** local fns inlined into the site *)
  binding : binding;
  findings : Finding.t list ref;
}

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let finding st ?severity ~rule ~loc fmt =
  Printf.ksprintf
    (fun message ->
      st.findings :=
        Finding.make ?severity ~rule ~file:st.file ~loc ~message ()
        :: !(st.findings))
    fmt

let register st ?maker ?fn ?(param = false) id =
  st.gen <- st.gen + 1;
  Hashtbl.replace st.locals id
    { l_maker = maker; l_fn = fn; l_param = param; l_gen = st.gen }

let any_lock_held st = Hashtbl.fold (fun _ n acc -> acc || n > 0) st.locks false

let held_keys st =
  List.sort String.compare
    (Hashtbl.fold (fun k n acc -> if n > 0 then k :: acc else acc) st.locks [])

let balance_snapshot st = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.locks []

let restore_balances st snap =
  Hashtbl.reset st.locks;
  List.iter (fun (k, v) -> Hashtbl.replace st.locks k v) snap

let balances_equal a b =
  let norm l =
    List.sort compare (List.filter (fun (_, v) -> v <> 0) l)
  in
  norm a = norm b

let bump st key delta =
  let v = match Hashtbl.find_opt st.locks key with Some v -> v | None -> 0 in
  Hashtbl.replace st.locks key (v + delta)

(* --- expression helpers --- *)

let rec render_target (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> Some (Mutability.short_name path)
  | Texp_field (base, _, lbl) -> (
      match render_target base with
      | Some s -> Some (s ^ "." ^ lbl.Types.lbl_name)
      | None -> Some lbl.Types.lbl_name)
  | _ -> None

(* The base value a read/write ultimately touches, looking through field
   chains. Reports whether any record along the chain carries its own
   Mutex.t/Atomic.t field (the self-guarded idiom). *)
type root =
  | Root_local of Ident.t
  | Root_global of Path.t
  | Root_none

let rec root_of ?(guarded = false) (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (Root_local id, guarded)
  | Texp_ident (path, _, _) -> (Root_global path, guarded)
  | Texp_field (base, _, lbl) ->
      root_of ~guarded:(guarded || Mutability.record_self_guarded lbl) base
  | _ -> (Root_none, guarded)

(* Does [e] syntactically contain [Atomic.get k] for the given key? *)
let contains_atomic_get key (e : Typedtree.expression) =
  let found = ref false in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (h, (_, Some arg) :: _) when not !found -> (
        match h.exp_desc with
        | Texp_ident (p, _, _)
          when Mutability.short_name p = "Atomic.get" ->
            if render_target arg = Some key then found := true
        | _ -> ())
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

(* Conservative: does every path through [e] end in a raise? Used to
   drop raising branches from lock-balance joins. *)
let rec always_raises (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (h, _) -> (
      match h.exp_desc with
      | Texp_ident (p, _, _) ->
          List.mem (Mutability.short_name p) Mutability.raising_ops
      | _ -> false)
  | Texp_sequence (_, b) -> always_raises b
  | Texp_let (_, _, body) -> always_raises body
  | Texp_ifthenelse (_, t, Some e) -> always_raises t && always_raises e
  | Texp_match (_, cases, _) ->
      cases <> []
      && List.for_all
           (fun (c : Typedtree.computation Typedtree.case) ->
             always_raises c.c_rhs)
           cases
  | Texp_assert (e, _) -> (
      match e.exp_desc with
      | Texp_construct (_, { cstr_name = "false"; _ }, _) -> true
      | _ -> false)
  | _ -> false

(* --- recording accesses --- *)

let record_use_raw st ~kind ~guarded ~loc hint name =
  let line, col = loc_pos loc in
  let u = { u_hint = hint; u_name = name; u_kind = kind; u_guarded = guarded; u_line = line; u_col = col } in
  match st.site with
  | Some (site, _) -> site.t_uses <- u :: site.t_uses
  | None -> st.binding.b_uses <- u :: st.binding.b_uses

let record_use st ~kind ~guarded ~loc path =
  let hint, name = Mutability.normalize_path path in
  record_use_raw st ~kind ~guarded ~loc hint name

let record_capture st ~sort ~kind ~p_kind ~loc name =
  match st.site with
  | None -> ()
  | Some (site, _) ->
      let line, col = loc_pos loc in
      site.t_captures <-
        { p_name = name; p_kind; p_sort = sort; p_access = kind; p_line = line; p_col = col }
        :: site.t_captures

(* An access to [root] with strength [kind]. Inside a crossing site,
   locals and params become captures; globals become site uses. Outside,
   only globals matter. *)
let record_access st ~kind ~guarded ~loc root chain_guarded =
  let guarded = guarded || chain_guarded || any_lock_held st in
  match root with
  | Root_none -> ()
  | Root_global path -> record_use st ~kind ~guarded ~loc path
  | Root_local id -> (
      match Hashtbl.find_opt st.locals id with
      | None ->
          (* Not bound inside this binding: a reference to a sibling
             top-level value of the same module (they resolve to bare
             idents, not dotted paths). *)
          record_use_raw st ~kind ~guarded ~loc (Some st.self_lib)
            (st.self_mod ^ "." ^ Ident.name id)
      | Some info -> (
          match st.site with
          | None -> ()
          | Some (_, site_gen) ->
              if info.l_gen <= site_gen && not guarded then (
                match info.l_maker with
                | Some { m_guard = Mutability.Unguarded; m_kind } ->
                    record_capture st ~sort:`Local ~kind ~p_kind:m_kind ~loc
                      (Ident.name id)
                | Some _ -> ()  (* atomic/mutex/DLS-guarded maker: safe *)
                | None ->
                    if info.l_param && kind <> Mention then
                      record_capture st ~sort:`Param ~kind ~p_kind:"" ~loc
                        (Ident.name id))))

(* --- the walk --- *)

let rec walk st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      (* Inside a crossing closure, a reference to a let-bound local
         function defined outside it means that function's body also runs
         on the other domain: walk it inline (once) so its accesses are
         attributed to the site. Otherwise a bare mention of a tracked
         local is only meaningful inside a crossing closure. *)
      match (st.site, Hashtbl.find_opt st.locals id) with
      | Some (_, site_gen), Some { l_fn = Some fn; l_gen; _ }
        when l_gen <= site_gen ->
          if not (List.memq id st.inlined) then begin
            st.inlined <- id :: st.inlined;
            walk_crossing_closure st fn
          end
      | _ ->
          record_access st ~kind:Mention ~guarded:false ~loc:e.exp_loc
            (Root_local id) false)
  | Texp_ident (path, _, _) ->
      record_use st ~kind:Mention ~guarded:(any_lock_held st) ~loc:e.exp_loc
        path
  | Texp_let (_, vbs, body) ->
      List.iter (walk_value_binding st) vbs;
      walk st body
  | Texp_sequence (a, b) ->
      walk st a;
      walk st b
  | Texp_ifthenelse (cond, then_, else_) ->
      walk st cond;
      (* An if without an else has an implicit empty branch that keeps
         the pre-branch lock state; the join must compare against it. *)
      let implicit_fallthrough = else_ = None in
      walk_branches st e.exp_loc ~implicit_fallthrough
        (then_ :: (match else_ with Some e -> [ e ] | None -> []))
  | Texp_match (scrut, cases, _) ->
      walk st scrut;
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          List.iter (fun id -> register st id) (Typedtree.pat_bound_idents c.c_lhs))
        cases;
      walk_branches st e.exp_loc
        (List.map (fun (c : Typedtree.computation Typedtree.case) -> c.c_rhs) cases)
  | Texp_try (body, handlers) ->
      let snap = balance_snapshot st in
      st.try_depth <- st.try_depth + 1;
      walk st body;
      st.try_depth <- st.try_depth - 1;
      let after_body = balance_snapshot st in
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          List.iter (fun id -> register st id) (Typedtree.pat_bound_idents c.c_lhs);
          restore_balances st snap;
          walk st c.c_rhs)
        handlers;
      restore_balances st after_body
  | Texp_while (cond, body) ->
      walk st cond;
      let snap = balance_snapshot st in
      walk st body;
      let after = balance_snapshot st in
      if not (balances_equal snap after) then
        finding st ~rule:"DR3" ~loc:e.exp_loc
          "loop body changes the lock balance of '%s' — a second iteration \
           double-locks or double-unlocks it"
          (String.concat ", "
             (List.sort_uniq String.compare
                (List.map fst (snap @ after))));
      restore_balances st snap
  | Texp_for (id, _, lo, hi, _, body) ->
      register st id;
      walk st lo;
      walk st hi;
      let snap = balance_snapshot st in
      walk st body;
      let after = balance_snapshot st in
      if not (balances_equal snap after) then
        finding st ~rule:"DR3" ~loc:e.exp_loc
          "loop body changes the lock balance of '%s' — a second iteration \
           double-locks or double-unlocks it"
          (String.concat ", "
             (List.sort_uniq String.compare
                (List.map fst (snap @ after))));
      restore_balances st snap
  | Texp_function { cases; _ } ->
      walk_function_cases st ~inherit_locks:false cases
  | Texp_field (base, _, lbl) ->
      if lbl.Types.lbl_mut = Asttypes.Mutable then begin
        let root, chain_guarded =
          root_of ~guarded:(Mutability.record_self_guarded lbl) base
        in
        record_access st ~kind:Read ~guarded:false ~loc:e.exp_loc root
          chain_guarded
      end;
      walk st base
  | Texp_setfield (base, _, lbl, v) ->
      let root, chain_guarded =
        root_of ~guarded:(Mutability.record_self_guarded lbl) base
      in
      record_access st ~kind:Write ~guarded:false ~loc:e.exp_loc root
        chain_guarded;
      walk st base;
      walk st v
  | Texp_apply (head, args) -> walk_apply st e head args
  | _ -> walk_children st e

and walk_children st (e : Typedtree.expression) =
  (* Generic recursion for constructs with no special control flow:
     visit every child expression with the main walker. *)
  let open Tast_iterator in
  let expr _sub child = walk st child in
  let it = { default_iterator with expr } in
  default_iterator.expr it e

and walk_branches st loc ?(implicit_fallthrough = false) branches =
  let snap = balance_snapshot st in
  let ends =
    List.map
      (fun branch ->
        restore_balances st snap;
        walk st branch;
        (balance_snapshot st, always_raises branch))
      branches
  in
  let ends = if implicit_fallthrough then ends @ [ (snap, false) ] else ends in
  let live = List.filter (fun (_, raises) -> not raises) ends in
  match live with
  | [] -> restore_balances st snap
  | (first, _) :: rest ->
      if
        List.exists (fun (b, _) -> not (balances_equal first b)) rest
        && st.protect_depth = 0
      then
        finding st ~rule:"DR3" ~loc
          "lock/unlock is unbalanced across branches: some paths leave a \
           mutex in a different state than others";
      restore_balances st first

and walk_value_binding st (vb : Typedtree.value_binding) =
  walk st vb.vb_expr;
  match Typedtree.pat_bound_idents vb.vb_pat with
  | [ id ] ->
      let maker = Mutability.maker_of vb.vb_expr in
      let fn =
        match vb.vb_expr.exp_desc with
        | Texp_function _ -> Some vb.vb_expr
        | _ -> None
      in
      register st ?maker ?fn id
  | ids -> List.iter (fun id -> register st id) ids

and walk_function_cases st ~inherit_locks cases =
  List.iter
    (fun (c : Typedtree.value Typedtree.case) ->
      List.iter
        (fun id -> register st ~param:true id)
        (Typedtree.pat_bound_idents c.c_lhs);
      (match c.c_guard with Some g -> walk st g | None -> ());
      if inherit_locks then walk st c.c_rhs
      else begin
        (* A closure body runs later, possibly elsewhere: it does not
           inherit the locks held at its definition site, and locks it
           takes do not leak out. *)
        let snap = balance_snapshot st in
        Hashtbl.reset st.locks;
        walk st c.c_rhs;
        (match held_keys st with
        | [] -> ()
        | keys ->
            finding st ~rule:"DR3" ~loc:c.c_rhs.exp_loc
              "closure can return while still holding '%s' (lock/unlock \
               imbalance)"
              (String.concat ", " keys));
        restore_balances st snap
      end)
    cases

(* Walk a closure argument of a crossing call inside the given site:
   either a literal function or a reference to a let-bound local one. *)
and walk_crossing_closure st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          List.iter
            (fun id -> register st ~param:true id)
            (Typedtree.pat_bound_idents c.c_lhs);
          let snap = balance_snapshot st in
          Hashtbl.reset st.locks;
          walk st c.c_rhs;
          restore_balances st snap)
        cases
  | _ ->
      (* A top-level function, an opaque local, or a local function — the
         Texp_ident case of [walk] inlines local functions itself. *)
      walk st e

and walk_apply st (e : Typedtree.expression) head args =
  let head_name =
    match head.exp_desc with
    | Texp_ident (path, _, _) -> Some (Mutability.short_name path)
    | _ -> None
  in
  let arg_exprs = List.filter_map (fun (_, a) -> a) args in
  let classify_op table =
    match head_name with
    | None -> None
    | Some name -> (
        match List.assoc_opt name table with
        | Some index -> (
            match List.nth_opt arg_exprs index with
            | Some target -> Some (name, target)
            | None -> None)
        | None -> None)
  in
  match head_name with
  | Some name when List.mem name Mutability.lock_ops -> (
      List.iter (walk st) arg_exprs;
      match arg_exprs with
      | target :: _ -> (
          match render_target target with
          | Some key -> bump st key 1
          | None -> bump st "<mutex>" 1)
      | [] -> ())
  | Some name when List.mem name Mutability.unlock_ops -> (
      List.iter (walk st) arg_exprs;
      match arg_exprs with
      | target :: _ -> (
          match render_target target with
          | Some key -> bump st key (-1)
          | None -> bump st "<mutex>" (-1))
      | [] -> ())
  | Some name when List.mem name Mutability.protect_ops ->
      (* Fun.protect / Mutex.protect: thunk arguments run in the same
         dynamic extent with the finally guaranteed — walk them inline
         (locks included) and treat raises as safe. *)
      st.protect_depth <- st.protect_depth + 1;
      List.iter
        (fun (a : Typedtree.expression) ->
          match a.exp_desc with
          | Texp_function { cases; _ } ->
              walk_function_cases st ~inherit_locks:true cases
          | _ -> walk st a)
        arg_exprs;
      st.protect_depth <- st.protect_depth - 1
  | Some name when List.mem name Mutability.atomic_ops ->
      (* The atomic op synchronizes its target; DR2 still rejects a
         get-then-set on the same atomic. *)
      (match arg_exprs with
      | target :: rest ->
          let root, chain_guarded = root_of target in
          record_access st
            ~kind:(if name = "Atomic.get" then Read else Write)
            ~guarded:true ~loc:e.exp_loc root chain_guarded;
          (match (name, render_target target, rest) with
          | ("Atomic.set" | "Atomic.exchange"), Some key, value :: _
            when contains_atomic_get key value ->
              finding st ~rule:"DR2" ~loc:e.exp_loc
                "non-atomic read-modify-write on '%s': %s over Atomic.get \
                 loses concurrent updates; use Atomic.fetch_and_add or a \
                 compare_and_set retry loop"
                key name
          | _ -> ());
          List.iter (walk st) rest
      | [] -> ())
  | Some name when List.mem name Mutability.dls_ops ->
      (* Domain-local storage: confined by construction. *)
      List.iter (walk st) arg_exprs
  | Some name when Mutability.crossing_of name <> None -> (
      match (Mutability.crossing_of name, st.site) with
      | None, _ | Some _, Some _ ->
          (* Already inside a crossing closure (or an impossible guard
             miss): analyze nested closures as plain code attributed to
             the outer site. *)
          walk st head;
          List.iter (walk st) arg_exprs
      | Some crossing, None ->
          walk st head;
          let line, col = loc_pos e.exp_loc in
          let site =
            { t_target = name; t_line = line; t_col = col; t_captures = []; t_uses = [] }
          in
          let closure_args, other_args =
            let labelled l =
              List.filter_map
                (fun ((lbl : Asttypes.arg_label), a) ->
                  match (lbl, a) with
                  | (Asttypes.Labelled s | Asttypes.Optional s), Some a
                    when Some s = l ->
                      Some a
                  | _ -> None)
                args
            in
            match crossing.x_label with
            | Some _ as l when labelled l <> [] ->
                let chosen = labelled l in
                (chosen, List.filter (fun a -> not (List.memq a chosen)) arg_exprs)
            | _ ->
                let indexed = List.mapi (fun i a -> (i, a)) arg_exprs in
                let chosen =
                  List.filter_map
                    (fun (i, a) ->
                      if List.mem i crossing.x_positional then Some a else None)
                    indexed
                in
                (chosen, List.filter (fun a -> not (List.memq a chosen)) arg_exprs)
          in
          List.iter (walk st) other_args;
          st.site <- Some (site, st.gen);
          st.inlined <- [];
          List.iter (walk_crossing_closure st) closure_args;
          st.site <- None;
          st.inlined <- [];
          st.binding.b_sites <- site :: st.binding.b_sites)
  | Some name when List.mem name Mutability.raising_ops ->
      List.iter (walk st) arg_exprs;
      if
        st.protect_depth = 0 && st.try_depth = 0
        && held_keys st <> []
      then
        finding st ~rule:"DR3" ~loc:e.exp_loc
          "%s while holding '%s': the mutex is never released on this path; \
           unlock first or wrap the section in Fun.protect"
          name
          (String.concat ", " (held_keys st))
  | Some name when List.mem name Mutability.blocking_ops ->
      List.iter (walk st) arg_exprs;
      if held_keys st <> [] then
        finding st ~severity:Finding.Warning ~rule:"DR3" ~loc:e.exp_loc
          "blocking call %s while holding '%s' stalls every domain waiting \
           on that mutex"
          name
          (String.concat ", " (held_keys st))
  | _ -> (
      (* Mutation/read tables, then plain recursion. *)
      match classify_op Mutability.write_ops with
      | Some (_, target) ->
          let root, chain_guarded = root_of target in
          record_access st ~kind:Write ~guarded:false ~loc:e.exp_loc root
            chain_guarded;
          walk st head;
          List.iter (walk st) arg_exprs
      | None -> (
          match classify_op Mutability.read_ops with
          | Some (_, target) ->
              let root, chain_guarded = root_of target in
              record_access st ~kind:Read ~guarded:false ~loc:e.exp_loc root
                chain_guarded;
              walk st head;
              List.iter (walk st) arg_exprs
          | None ->
              walk st head;
              List.iter (walk st) arg_exprs))

(* --- structure traversal --- *)

let binding_name (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
  | _ -> "_"

let structure_has_mutex (str : Typedtree.structure) =
  List.exists
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.exists
            (fun (vb : Typedtree.value_binding) ->
              match Mutability.maker_of vb.vb_expr with
              | Some { m_guard = Mutability.Mutex_guard; _ } -> true
              | _ -> false)
            vbs
      | _ -> false)
    str.str_items

let of_source (src : Loader.source) =
  let file = src.Loader.path in
  let cells = ref [] in
  let bindings = ref [] in
  let findings = ref [] in
  let scan_binding ~qual name loc (expr : Typedtree.expression) =
    let line, _ = loc_pos loc in
    let binding =
      { b_name = (if qual = "" then name else qual ^ "." ^ name); b_line = line; b_uses = []; b_sites = [] }
    in
    let st =
      {
        file;
        self_lib = Mutability.lib_of_source_path file;
        self_mod = Mutability.module_of_source_path file;
        gen = 0;
        locals = Hashtbl.create 32;
        locks = Hashtbl.create 4;
        protect_depth = 0;
        try_depth = 0;
        site = None;
        inlined = [];
        binding;
        findings;
      }
    in
    walk st expr;
    (match held_keys st with
    | [] -> ()
    | keys ->
        finding st ~rule:"DR3" ~loc
          "'%s' can return while still holding '%s' (lock/unlock imbalance)"
          binding.b_name
          (String.concat ", " keys));
    bindings := binding :: !bindings
  in
  let rec scan_structure ~qual (str : Typedtree.structure) =
    let has_mutex = structure_has_mutex str in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                let name = binding_name vb in
                let name =
                  if name = "_" then
                    Printf.sprintf "(toplevel:%d)" (fst (loc_pos vb.vb_loc))
                  else name
                in
                (match Mutability.maker_of vb.vb_expr with
                | Some maker ->
                    let guard =
                      match maker.Mutability.m_guard with
                      | Mutability.Unguarded when has_mutex ->
                          Mutability.Mutex_guard
                      | g -> g
                    in
                    let line, col = loc_pos vb.vb_loc in
                    cells :=
                      {
                        c_name = (if qual = "" then name else qual ^ "." ^ name);
                        c_kind = maker.Mutability.m_kind;
                        c_guard = guard;
                        c_line = line;
                        c_col = col;
                      }
                      :: !cells
                | None -> ());
                scan_binding ~qual name vb.vb_loc vb.vb_expr)
              vbs
        | Tstr_eval (e, _) ->
            scan_binding ~qual
              (Printf.sprintf "(toplevel:%d)" (fst (loc_pos item.str_loc)))
              item.str_loc e
        | Tstr_module mb -> scan_module_binding ~qual mb
        | Tstr_recmodule mbs -> List.iter (scan_module_binding ~qual) mbs
        | Tstr_include incl -> scan_module_expr ~qual incl.incl_mod
        | _ -> ())
      str.str_items
  and scan_module_binding ~qual (mb : Typedtree.module_binding) =
    let sub =
      match mb.mb_id with
      | Some id -> Ident.name id
      | None -> "_"
    in
    let qual = if qual = "" then sub else qual ^ "." ^ sub in
    scan_module_expr ~qual mb.mb_expr
  and scan_module_expr ~qual (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> scan_structure ~qual str
    | Tmod_constraint (me, _, _, _) -> scan_module_expr ~qual me
    | Tmod_functor (_, me) -> scan_module_expr ~qual me
    | _ -> ()
  in
  scan_structure ~qual:"" src.Loader.structure;
  {
    s_path = file;
    s_lib = Mutability.lib_of_source_path file;
    s_module = Mutability.module_of_source_path file;
    s_cells = List.rev !cells;
    s_bindings = List.rev !bindings;
    s_findings = List.rev !findings;
  }
