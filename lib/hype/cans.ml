(* Append-only during the pass (the hot path: two int stores per
   candidate, into buffers that double when full); grouping and condition
   evaluation happen in the final resolution pass. *)
type t = {
  mutable nodes : int array;
  mutable conds : int array;
  mutable n_entries : int;
}

let create () = { nodes = [||]; conds = [||]; n_entries = 0 }

let add t ~node set =
  let n = t.n_entries in
  if n = Array.length t.nodes then begin
    let cap = max 64 (2 * n) in
    let nodes = Array.make cap 0 and conds = Array.make cap 0 in
    Array.blit t.nodes 0 nodes 0 n;
    Array.blit t.conds 0 conds 0 n;
    t.nodes <- nodes;
    t.conds <- conds
  end;
  Array.unsafe_set t.nodes n node;
  Array.unsafe_set t.conds n set;
  t.n_entries <- n + 1

let size t = t.n_entries

let entries t table =
  let groups : (int, Conds.dnf ref) Hashtbl.t = Hashtbl.create 64 in
  for i = t.n_entries - 1 downto 0 do
    let node = t.nodes.(i) and set = t.conds.(i) in
    match Hashtbl.find_opt groups node with
    | Some cell -> cell := Conds.dnf_add table !cell set
    | None ->
      Hashtbl.add groups node (ref (Conds.dnf_add table Conds.dnf_false set))
  done;
  Hashtbl.fold (fun node cell acc -> (node, !cell) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let resolve t ~holds =
  let kept = Array.make t.n_entries 0 in
  let k = ref 0 in
  for i = 0 to t.n_entries - 1 do
    if holds t.conds.(i) then begin
      kept.(!k) <- t.nodes.(i);
      incr k
    end
  done;
  let kept = Array.sub kept 0 !k in
  Array.sort Int.compare kept;
  let rec uniq acc i =
    if i < 0 then acc
    else
      match acc with
      | x :: _ when x = kept.(i) -> uniq acc (i - 1)
      | _ -> uniq (kept.(i) :: acc) (i - 1)
  in
  uniq [] (Array.length kept - 1)
