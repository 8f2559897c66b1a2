type source = {
  path : string;
  structure : Typedtree.structure;
}

type result = {
  sources : source list;
  unreadable : string list;
}

let rec scan_dir dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then scan_dir path acc
          else if Filename.check_suffix path ".cmt" then path :: acc
          else acc)
        acc entries

let generated source = Filename.check_suffix source ".ml-gen"

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ -> Error path
  | infos -> (
      match (infos.cmt_annots, infos.cmt_sourcefile) with
      | Cmt_format.Implementation structure, Some source
        when not (generated source) ->
          Ok (Some { path = source; structure })
      | _ -> Ok None)

(* Local copy of Rule.path_has_prefix: the loader sits below Rule in the
   module graph (Rule now reaches Callgraph, which reaches back here). *)
let path_has_prefix prefixes path =
  List.exists
    (fun prefix ->
      String.length path >= String.length prefix
      && String.sub path 0 (String.length prefix) = prefix)
    prefixes

let load ~build_dir ~prefixes =
  let cmts = List.sort String.compare (scan_dir build_dir []) in
  let sources, unreadable =
    List.fold_left
      (fun (sources, unreadable) cmt ->
        match load_cmt cmt with
        | Error path -> (sources, path :: unreadable)
        | Ok None -> (sources, unreadable)
        | Ok (Some src) ->
            if prefixes = [] || path_has_prefix prefixes src.path then
              (src :: sources, unreadable)
            else (sources, unreadable))
      ([], []) cmts
  in
  (* Both byte and native artifact dirs can carry a cmt for the same
     module; keep one per source path. *)
  let sources = List.sort (fun a b -> String.compare a.path b.path) sources in
  let rec dedup = function
    | a :: (b :: _ as rest) when a.path = b.path -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  { sources = dedup sources; unreadable = List.sort String.compare unreadable }
