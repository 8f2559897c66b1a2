module Int_table = Dangers_util.Int_table

let find_cycle ~successors ~start =
  (* DFS with an explicit path; [visited] prunes nodes proven not to reach
     [start]. *)
  let visited = Int_table.create ~filler:() 64 in
  let rec dfs node path =
    let explore acc successor =
      match acc with
      | Some _ as found -> found
      | None ->
          if successor = start then Some (List.rev path)
          else if Int_table.mem visited successor then None
          else begin
            Int_table.add visited successor ();
            dfs successor (successor :: path)
          end
    in
    List.fold_left explore None (successors node)
  in
  dfs start [ start ]

let reachable ~successors ~start =
  let visited = Int_table.create ~filler:() 64 in
  let rec dfs node =
    List.iter
      (fun successor ->
        if not (Int_table.mem visited successor) then begin
          Int_table.add visited successor ();
          dfs successor
        end)
      (successors node)
  in
  dfs start;
  Int_table.fold (fun node () acc -> node :: acc) visited []
  |> List.sort Int.compare
