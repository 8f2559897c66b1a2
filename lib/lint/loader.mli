(** Loads the [.cmt] files a [dune build] already produced and exposes
    each implementation's typedtree.

    Sources are identified by the path recorded at compile time
    ([cmt_sourcefile]), which dune makes relative to the build-context
    root — ["lib/sim/engine.ml"] — so rule scoping works the same whether
    the scan runs from the repo root over [_build/default] or inside the
    build tree itself. *)

type source = {
  path : string;  (** source path as recorded in the cmt *)
  structure : Typedtree.structure;
}

type result = {
  sources : source list;  (** deduped, sorted by [path] *)
  unreadable : string list;  (** cmt files that failed to load, sorted *)
}

val load : build_dir:string -> prefixes:string list -> result
(** Scan [build_dir] recursively for [*.cmt] implementation files whose
    recorded source path starts with one of [prefixes] (all files when
    [prefixes] is empty). Interfaces, packed units, partial
    implementations, and dune's generated [*.ml-gen] alias modules are
    skipped silently; a cmt that exists but cannot be read is reported in
    [unreadable]. *)
