(* Phase 2 of the interprocedural pass: resolve the uses each summary
   recorded against the definitions every other summary exports, compute
   which unguarded module-level cells each binding can reach (a
   least-fixpoint over call edges), and emit the whole-program rules:

   DR1 — mutable state crossing a domain boundary: a crossing closure
   that captures an unguarded local or parameter, touches an unguarded
   module-level cell directly, or calls a function whose reachable set
   contains one.

   DR4 — an unguarded module-level cell used both inside some crossing
   closure and from ordinary code: the classic "works until the pool is
   turned on" latent race. *)

type resolved =
  | R_cell of Summary.t * Summary.cell
  | R_binding of Summary.t * Summary.binding

type t = {
  summaries : Summary.t list;
  cells_by_name : (string, (string * Summary.t * Summary.cell) list) Hashtbl.t;
  bindings_by_name :
    (string, (string * Summary.t * Summary.binding) list) Hashtbl.t;
  (* binding key -> set of unguarded-cell keys it can touch without a
     guard, directly or through calls *)
  reach : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  cells : (string, Summary.t * Summary.cell) Hashtbl.t;  (* by cell key *)
}

let binding_key (s : Summary.t) (b : Summary.binding) =
  s.Summary.s_lib ^ "/" ^ s.Summary.s_module ^ "." ^ b.Summary.b_name

let cell_key (s : Summary.t) (c : Summary.cell) =
  s.Summary.s_lib ^ "/" ^ s.Summary.s_module ^ "." ^ c.Summary.c_name

let cell_display (s : Summary.t) (c : Summary.cell) =
  s.Summary.s_module ^ "." ^ c.Summary.c_name

let binding_display (s : Summary.t) (b : Summary.binding) =
  s.Summary.s_module ^ "." ^ b.Summary.b_name

let add_multi tbl key v =
  let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
  Hashtbl.replace tbl key (prev @ [ v ])

(* Resolve a recorded use. Cells shadow bindings of the same name (the
   initializer of a cell is also a binding); a library hint narrows
   ambiguous names, and an ambiguous name without a hint resolves only
   when there is a single candidate. *)
let resolve t (u : Summary.use) =
  let pick candidates inject =
    match candidates with
    | [] -> None
    | l -> (
        let narrowed =
          match u.Summary.u_hint with
          | Some h -> (
              match List.filter (fun (lib, _, _) -> lib = h) l with
              | [] -> l
              | narrowed -> narrowed)
          | None -> l
        in
        match narrowed with
        | [ (_, s, x) ] -> Some (inject s x)
        | _ -> None)
  in
  let name = u.Summary.u_name in
  match
    pick
      (Option.value ~default:[] (Hashtbl.find_opt t.cells_by_name name))
      (fun s c -> R_cell (s, c))
  with
  | Some _ as r -> r
  | None ->
      pick
        (Option.value ~default:[] (Hashtbl.find_opt t.bindings_by_name name))
        (fun s b -> R_binding (s, b))

let reach_of t key =
  match Hashtbl.find_opt t.reach key with
  | Some set -> set
  | None ->
      let set = Hashtbl.create 1 in
      Hashtbl.replace t.reach key set;
      set

let make summaries =
  let t =
    {
      summaries;
      cells_by_name = Hashtbl.create 256;
      bindings_by_name = Hashtbl.create 1024;
      reach = Hashtbl.create 1024;
      cells = Hashtbl.create 256;
    }
  in
  List.iter
    (fun (s : Summary.t) ->
      List.iter
        (fun (c : Summary.cell) ->
          add_multi t.cells_by_name
            (s.Summary.s_module ^ "." ^ c.Summary.c_name)
            (s.Summary.s_lib, s, c);
          Hashtbl.replace t.cells (cell_key s c) (s, c))
        s.Summary.s_cells;
      List.iter
        (fun (b : Summary.binding) ->
          add_multi t.bindings_by_name
            (s.Summary.s_module ^ "." ^ b.Summary.b_name)
            (s.Summary.s_lib, s, b))
        s.Summary.s_bindings)
    summaries;
  (* Seed: direct unguarded accesses to unguarded cells. *)
  List.iter
    (fun (s : Summary.t) ->
      List.iter
        (fun (b : Summary.binding) ->
          let set = reach_of t (binding_key s b) in
          List.iter
            (fun (u : Summary.use) ->
              if not u.Summary.u_guarded then
                match resolve t u with
                | Some (R_cell (cs, c))
                  when c.Summary.c_guard = Mutability.Unguarded ->
                    Hashtbl.replace set (cell_key cs c) ()
                | _ -> ())
            b.Summary.b_uses)
        s.Summary.s_bindings)
    summaries;
  (* Fixpoint: an unguarded call propagates the callee's reachable set.
     A call made under a lock is treated as guarded — that is exactly the
     monitor idiom the guarded accessors implement. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (s : Summary.t) ->
        List.iter
          (fun (b : Summary.binding) ->
            let set = reach_of t (binding_key s b) in
            List.iter
              (fun (u : Summary.use) ->
                if not u.Summary.u_guarded then
                  match resolve t u with
                  | Some (R_binding (bs, b')) ->
                      let callee = reach_of t (binding_key bs b') in
                      Hashtbl.iter
                        (fun k () ->
                          if not (Hashtbl.mem set k) then begin
                            Hashtbl.replace set k ();
                            changed := true
                          end)
                        callee
                  | _ -> ())
              b.Summary.b_uses)
          s.Summary.s_bindings)
      summaries
  done;
  t

(* --- DR1 --- *)

let access_word = function
  | Summary.Mention -> "referenced"
  | Summary.Read -> "read"
  | Summary.Write -> "written"

(* Strongest access per (name, sort); ties broken by line for stable
   output. *)
let dedupe_captures captures =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (p : Summary.capture) ->
      let key = (p.Summary.p_name, p.Summary.p_sort) in
      match Hashtbl.find_opt tbl key with
      | Some (prev : Summary.capture) ->
          let stronger =
            Summary.kind_rank p.Summary.p_access
            > Summary.kind_rank prev.Summary.p_access
            || Summary.kind_rank p.Summary.p_access
                 = Summary.kind_rank prev.Summary.p_access
               && p.Summary.p_line < prev.Summary.p_line
          in
          if stronger then Hashtbl.replace tbl key p
      | None -> Hashtbl.replace tbl key p)
    captures;
  Hashtbl.fold (fun _ p acc -> p :: acc) tbl []
  |> List.sort (fun (a : Summary.capture) (b : Summary.capture) ->
         compare
           (a.Summary.p_line, a.Summary.p_col, a.Summary.p_name)
           (b.Summary.p_line, b.Summary.p_col, b.Summary.p_name))

let dr1_site t (s : Summary.t) (site : Summary.site) =
  let findings = ref [] in
  let emit ~line ~col fmt =
    Printf.ksprintf
      (fun message ->
        findings :=
          Finding.at ~rule:"DR1" ~file:s.Summary.s_path ~line ~col ~message ()
          :: !findings)
      fmt
  in
  List.iter
    (fun (p : Summary.capture) ->
      match p.Summary.p_sort with
      | `Local ->
          emit ~line:p.Summary.p_line ~col:p.Summary.p_col
            "mutable local '%s' (%s) is %s inside a closure crossing %s \
             without synchronization; share it via Atomic/Mutex or keep it \
             domain-local"
            p.Summary.p_name p.Summary.p_kind
            (match p.Summary.p_access with
            | Summary.Mention -> "captured"
            | k -> access_word k)
            site.Summary.t_target
      | `Param ->
          emit ~line:p.Summary.p_line ~col:p.Summary.p_col
            "'%s' is %s inside a closure crossing %s without \
             synchronization; the caller can touch it concurrently"
            p.Summary.p_name
            (access_word p.Summary.p_access)
            site.Summary.t_target)
    (dedupe_captures site.Summary.t_captures);
  (* Direct cell accesses first (so a cell reached both ways reports the
     more precise direct form), then transitive reach through calls. *)
  let seen_cells = Hashtbl.create 8 in
  let seen_callees = Hashtbl.create 8 in
  let uses =
    List.sort
      (fun (a : Summary.use) (b : Summary.use) ->
        compare
          (a.Summary.u_line, a.Summary.u_col, a.Summary.u_name)
          (b.Summary.u_line, b.Summary.u_col, b.Summary.u_name))
      site.Summary.t_uses
  in
  List.iter
    (fun (u : Summary.use) ->
      if not u.Summary.u_guarded then
        match resolve t u with
        | Some (R_cell (cs, c))
          when c.Summary.c_guard = Mutability.Unguarded
               && not (Hashtbl.mem seen_cells (cell_key cs c)) ->
            Hashtbl.replace seen_cells (cell_key cs c) ();
            emit ~line:u.Summary.u_line ~col:u.Summary.u_col
              "unguarded module-level '%s' (%s) is %s inside a closure \
               crossing %s; guard it with a Mutex or make it Atomic"
              (cell_display cs c) c.Summary.c_kind
              (access_word u.Summary.u_kind)
              site.Summary.t_target
        | _ -> ())
    uses;
  List.iter
    (fun (u : Summary.use) ->
      if not u.Summary.u_guarded then
        match resolve t u with
        | Some (R_binding (bs, b'))
          when not (Hashtbl.mem seen_callees (binding_key bs b')) ->
            Hashtbl.replace seen_callees (binding_key bs b') ();
            let reached =
              Hashtbl.fold
                (fun k () acc -> k :: acc)
                (reach_of t (binding_key bs b'))
                []
              |> List.sort String.compare
            in
            List.iter
              (fun ck ->
                if not (Hashtbl.mem seen_cells ck) then begin
                  Hashtbl.replace seen_cells ck ();
                  match Hashtbl.find_opt t.cells ck with
                  | Some (cs, c) ->
                      emit ~line:u.Summary.u_line ~col:u.Summary.u_col
                        "closure crossing %s calls %s, which reaches \
                         unguarded module-level '%s' (%s); synchronize the \
                         cell or pass the data explicitly"
                        site.Summary.t_target
                        (binding_display bs b')
                        (cell_display cs c) c.Summary.c_kind
                  | None -> ()
                end)
              reached
        | _ -> ())
    uses;
  List.rev !findings

let dr1 t =
  List.concat_map
    (fun (s : Summary.t) ->
      List.concat_map
        (fun (b : Summary.binding) ->
          List.concat_map (dr1_site t s) (List.rev b.Summary.b_sites))
        s.Summary.s_bindings)
    t.summaries

(* --- DR4 --- *)

let dr4 t =
  (* Crossing side: every cell key some crossing closure can touch,
     with the lexically smallest witness site. *)
  let crossed = Hashtbl.create 32 in
  let note key site_file site_line =
    match Hashtbl.find_opt crossed key with
    | Some (f, l) when (f, l) <= (site_file, site_line) -> ()
    | _ -> Hashtbl.replace crossed key (site_file, site_line)
  in
  List.iter
    (fun (s : Summary.t) ->
      List.iter
        (fun (b : Summary.binding) ->
          List.iter
            (fun (site : Summary.site) ->
              List.iter
                (fun (u : Summary.use) ->
                  if not u.Summary.u_guarded then
                    match resolve t u with
                    | Some (R_cell (cs, c))
                      when c.Summary.c_guard = Mutability.Unguarded ->
                        note (cell_key cs c) s.Summary.s_path
                          site.Summary.t_line
                    | Some (R_binding (bs, b')) ->
                        Hashtbl.iter
                          (fun k () ->
                            note k s.Summary.s_path site.Summary.t_line)
                          (reach_of t (binding_key bs b'))
                    | _ -> ())
                site.Summary.t_uses)
            b.Summary.b_sites)
        s.Summary.s_bindings)
    t.summaries;
  (* Plain side: a direct unguarded access outside any crossing closure,
     excluding the cell's own initializer binding. *)
  let plain = Hashtbl.create 32 in
  List.iter
    (fun (s : Summary.t) ->
      List.iter
        (fun (b : Summary.binding) ->
          List.iter
            (fun (u : Summary.use) ->
              if not u.Summary.u_guarded then
                match resolve t u with
                | Some (R_cell (cs, c))
                  when c.Summary.c_guard = Mutability.Unguarded
                       && not
                            (cs.Summary.s_path = s.Summary.s_path
                            && c.Summary.c_name = b.Summary.b_name) ->
                    let key = cell_key cs c in
                    let witness = binding_display s b in
                    (match Hashtbl.find_opt plain key with
                    | Some w when w <= witness -> ()
                    | _ -> Hashtbl.replace plain key witness)
                | _ -> ())
            b.Summary.b_uses)
        s.Summary.s_bindings)
    t.summaries;
  Hashtbl.fold (fun key (s, c) acc -> (key, s, c) :: acc) t.cells []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  |> List.filter_map (fun (key, (s : Summary.t), (c : Summary.cell)) ->
         match
           (c.Summary.c_guard, Hashtbl.find_opt crossed key,
            Hashtbl.find_opt plain key)
         with
         | Mutability.Unguarded, Some (site_file, site_line), Some accessor ->
             Some
               (Finding.at ~rule:"DR4" ~file:s.Summary.s_path
                  ~line:c.Summary.c_line ~col:c.Summary.c_col
                  ~message:
                    (Printf.sprintf
                       "module-level mutable '%s' (%s) is reached from a \
                        domain-crossing closure (%s:%d) and from '%s' \
                        outside it; every access must go through one \
                        Atomic/Mutex discipline"
                       (cell_display s c) c.Summary.c_kind site_file
                       site_line accessor)
                  ())
         | _ -> None)

(* --- DR2/DR3: already decided per unit, stored in the summaries --- *)

let local_findings t ~rule =
  List.concat_map
    (fun (s : Summary.t) ->
      List.filter
        (fun (f : Finding.t) -> f.Finding.rule = rule)
        s.Summary.s_findings)
    t.summaries
