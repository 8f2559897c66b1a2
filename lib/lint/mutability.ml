(* Classification tables shared by the interprocedural pass: what
   allocates mutable state, what mutates it, what synchronizes it, and
   how resolved paths are normalized so a use in one library matches a
   definition in another.

   Dune wraps each library, so a cross-module reference resolves to a
   mangled unit name ([Dangers_util__Domain_pool.parallel_for]) or to an
   alias path ([Dangers_util.Domain_pool.parallel_for]). Both normalize
   to the same [(lib hint, "Domain_pool.parallel_for")] pair; definitions
   carry the same shape derived from their source path, so matching is
   library-aware without reading any dune metadata. *)

(* --- name normalization --- *)

let strip_stdlib name =
  let prefix = "Stdlib." in
  let n = String.length prefix in
  if String.length name > n && String.sub name 0 n = prefix then
    String.sub name n (String.length name - n)
  else name

let split_mangled component =
  (* ["Dangers_util__Domain_pool"] -> (Some "dangers_util", "Domain_pool") *)
  match String.index_opt component '_' with
  | None -> (None, component)
  | Some _ -> (
      let n = String.length component in
      let rec find i =
        if i + 1 >= n then None
        else if component.[i] = '_' && component.[i + 1] = '_' then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> (None, component)
      | Some i ->
          ( Some (String.lowercase_ascii (String.sub component 0 i)),
            String.sub component (i + 2) (n - i - 2) ))

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Normalized use: optional library hint plus the [Module.rest] tail that
   definitions are keyed by. *)
let normalize_use name =
  let name = strip_stdlib name in
  match String.split_on_char '.' name with
  | [] -> (None, name)
  | first :: rest -> (
      match split_mangled first with
      | Some lib, modname ->
          (Some lib, String.concat "." (modname :: rest))
      | None, _ when starts_with "Dangers_" first -> (
          (* Library alias path: Dangers_util.Domain_pool.f *)
          match rest with
          | [] -> (None, name)
          | modname :: tail ->
              ( Some (String.lowercase_ascii first),
                String.concat "." (modname :: tail) ))
      | None, _ -> (None, name))

let normalize_path path = normalize_use (Path.name path)

(* The short [Module.rest] form, hint dropped — used for matching the
   fixed tables below, where the module name is unambiguous. *)
let short_name path = snd (normalize_path path)

(* Library slug a definition in [source_path] belongs to:
   lib/util/... -> "dangers_util"; bin/ and bench/ keep the directory
   name (executables are never referenced cross-module, so any stable
   value works). *)
let lib_of_source_path path =
  match String.split_on_char '/' path with
  | "lib" :: dir :: _ -> "dangers_" ^ dir
  | dir :: _ :: _ -> dir
  | _ -> path

let module_of_source_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* --- mutable allocation --- *)

(* What a module- or let-level binding allocates, judged by the head of
   its right-hand side. [Guarded_*] makers are safe to share across
   domains by construction; [Unguarded] ones are the cells the DR rules
   track. *)
type guard = Unguarded | Atomic_guard | Mutex_guard | Dls_guard

type maker = {
  m_kind : string;  (** printable allocation kind, e.g. ["Hashtbl.create"] *)
  m_guard : guard;
}

let unguarded_makers =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Array.make"; "Array.create_float"; "Array.init"; "Bytes.create";
    "Bytes.make"; "Weak.create";
  ]

let guarded_makers =
  [
    ("Atomic.make", Atomic_guard);
    ("Mutex.create", Mutex_guard);
    ("Condition.create", Mutex_guard);
    ("Domain.DLS.new_key", Dls_guard);
  ]

let mutex_type_names = [ "Mutex.t"; "Stdlib.Mutex.t" ]

let type_is_mutex ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> List.mem (Path.name p) mutex_type_names
  | _ -> false

let type_is_atomic ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) ->
      let n = Path.name p in
      n = "Atomic.t" || n = "Stdlib.Atomic.t"
  | _ -> false

(* A record that carries its own Mutex.t (or Atomic.t) field is treated
   as self-guarded shared state: the Domain_pool / Engine idiom. The
   label array on any one field descriptor lists every field of the
   record, so no environment lookup is needed. *)
let record_self_guarded (label : Types.label_description) =
  Array.exists
    (fun (l : Types.label_description) ->
      type_is_mutex l.lbl_arg || type_is_atomic l.lbl_arg)
    label.lbl_all

let rec head_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> Some (short_name path)
  | Texp_apply (f, _) -> head_of f
  | _ -> None

(* Classify a binding's right-hand side. Record literals are judged by
   their fields: any mutable field makes the record a mutable cell, and a
   Mutex.t/Atomic.t field makes it self-guarded. *)
let maker_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_lazy _ -> Some { m_kind = "lazy"; m_guard = Unguarded }
  | Texp_record { fields; _ } ->
      let labels = Array.map fst fields in
      let mutable_field =
        Array.exists
          (fun (l : Types.label_description) -> l.lbl_mut = Mutable)
          labels
      in
      if not mutable_field then None
      else if Array.length labels > 0 && record_self_guarded labels.(0) then
        Some { m_kind = "record"; m_guard = Mutex_guard }
      else Some { m_kind = "record"; m_guard = Unguarded }
  | Texp_array (_ :: _) -> Some { m_kind = "array"; m_guard = Unguarded }
  | Texp_apply _ | Texp_ident _ -> (
      match head_of e with
      | None -> None
      | Some name -> (
          match List.assoc_opt name guarded_makers with
          | Some g -> Some { m_kind = name; m_guard = g }
          | None ->
              if List.mem name unguarded_makers then
                Some { m_kind = name; m_guard = Unguarded }
              else None))
  | _ -> None

(* --- mutation and synchronized access --- *)

(* Functions whose named argument position mutates the value passed
   there: (normalized head, 0-based argument index). *)
let write_ops =
  [
    (":=", 0);
    ("incr", 0);
    ("decr", 0);
    ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0); ("Hashtbl.filter_map_inplace", 1);
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2); ("Array.sort", 1); ("Array.fast_sort", 1);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.fill", 0);
    ("Bytes.blit", 2);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_substring", 0); ("Buffer.add_buffer", 1); ("Buffer.clear", 0);
    ("Buffer.reset", 0); ("Buffer.truncate", 0);
    ("Queue.add", 1); ("Queue.push", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0); ("Queue.transfer", 0);
    ("Stack.push", 1); ("Stack.pop", 0); ("Stack.clear", 0);
    ("Weak.set", 0);
  ]

(* Reads that touch mutable structure (racy against a concurrent write
   even though they write nothing themselves). *)
let read_ops =
  [
    ("!", 0);
    ("Hashtbl.find", 0); ("Hashtbl.find_opt", 0); ("Hashtbl.find_all", 0);
    ("Hashtbl.mem", 0); ("Hashtbl.length", 0); ("Hashtbl.fold", 1);
    ("Hashtbl.iter", 1); ("Hashtbl.copy", 0); ("Hashtbl.to_seq", 0);
    ("Array.get", 0); ("Array.unsafe_get", 0); ("Array.length", 0);
    ("Array.iter", 1); ("Array.iteri", 1); ("Array.fold_left", 2);
    ("Array.map", 1); ("Array.to_list", 0); ("Array.copy", 0);
    ("Bytes.get", 0); ("Bytes.unsafe_get", 0); ("Bytes.sub_string", 0);
    ("Buffer.contents", 0); ("Buffer.length", 0);
    ("Queue.peek", 0); ("Queue.is_empty", 0); ("Queue.length", 0);
    ("Stack.top", 0); ("Stack.is_empty", 0); ("Stack.length", 0);
    ("Lazy.force", 0);
    ("Weak.get", 0);
  ]

(* Atomic operations synchronize their first argument. *)
let atomic_ops =
  [
    "Atomic.get"; "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr";
  ]

let dls_ops = [ "Domain.DLS.get"; "Domain.DLS.set"; "Domain.self" ]

(* --- DR3 call classes --- *)

(* Mutex.try_lock is deliberately absent: its lock is conditional on the
   result, which a linear balance count cannot model. *)
let lock_ops = [ "Mutex.lock" ]
let unlock_ops = [ "Mutex.unlock" ]

(* Fun.protect / Mutex.protect: the body runs with the finally guaranteed,
   so raising inside them is lock-safe. *)
let protect_ops = [ "Fun.protect"; "Mutex.protect" ]

let raising_ops =
  [
    "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "Invalid_argument";
    "Printexc.raise_with_backtrace";
  ]

(* Parking or joining while holding a lock: at best a latency cliff, at
   worst a deadlock. Condition.wait is exempt — it atomically releases
   the mutex it is given. *)
let blocking_ops =
  [
    "Unix.sleep"; "Unix.sleepf"; "Unix.select"; "Unix.wait"; "Unix.waitpid";
    "Domain.join"; "Thread.join"; "Thread.delay";
  ]

(* --- domain-crossing targets --- *)

(* An application of one of these hands its closure argument to another
   domain. [by_label] names labelled closure arguments; [positional]
   gives 0-based positions checked when the label is absent. *)
type crossing = {
  x_name : string;
  x_label : string option;
  x_positional : int list;
}

let crossings =
  [
    { x_name = "Domain.spawn"; x_label = None; x_positional = [ 0 ] };
    { x_name = "Thread.create"; x_label = None; x_positional = [ 0 ] };
    { x_name = "Domain_pool.parallel_for"; x_label = Some "f"; x_positional = [] };
    { x_name = "Task_pool.map"; x_label = Some "f"; x_positional = [] };
    { x_name = "Pool.parallel_for"; x_label = Some "f"; x_positional = [] };
  ]

let crossing_of name =
  List.find_opt (fun c -> c.x_name = name) crossings
