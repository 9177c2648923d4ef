type report = {
  states_before : int;
  states_after : int;
  transitions_before : int;
  transitions_after : int;
}

let pp_report ppf r =
  Fmt.pf ppf "states %d -> %d, transitions %d -> %d" r.states_before
    r.states_after r.transitions_before r.transitions_after

(* The orders polymorphic [compare] gives edges and accepts, which fix the
   order of the optimized automaton's lists: constant constructors sort
   before the others, strings by [String.compare]. *)
let test_rank = function
  | Nfa.Any_element -> 0
  | Nfa.Text_node -> 1
  | Nfa.Element _ -> 2

let compare_edge (t1, v1) (t2, v2) =
  let c =
    match t1, t2 with
    | Nfa.Element a, Nfa.Element b -> String.compare a b
    | _ -> Int.compare (test_rank t1) (test_rank t2)
  in
  if c <> 0 then c else Int.compare v1 v2

let compare_accept a b =
  match a, b with
  | Nfa.Select, Nfa.Select -> 0
  | Nfa.Select, Nfa.Atom_accept _ -> -1
  | Nfa.Atom_accept _, Nfa.Select -> 1
  | Nfa.Atom_accept i, Nfa.Atom_accept j -> Int.compare i j

let optimize_with_report (mfa : Mfa.t) =
  let nfa = mfa.Mfa.nfa in
  let n = nfa.Nfa.n_states in
  let before_states = n and before_transitions = Nfa.n_transitions nfa in
  (* Transitions into states that can never accept are useless. *)
  let live = Reachability.live nfa in
  (* The check-free closure of [s]: states reachable from [s] through
     epsilon edges that never cross a check-guarded state, whose behaviour
     can be folded into [s].  [s] itself is included whatever its checks
     (they guard entry into [s], which the fold does not change).  Members
     land in [members.(0 .. k-1)]; [stamp] marks them for this [s]. *)
  let stamp = Array.make n (-1) and members = Array.make n 0 in
  let rec enter s k = function
    | [] -> k
    | v :: rest ->
      if stamp.(v) <> s && nfa.Nfa.checks.(v) = [] then begin
        stamp.(v) <- s;
        members.(k) <- v;
        enter s (k + 1) rest
      end
      else enter s k rest
  in
  let closure s =
    stamp.(s) <- s;
    members.(0) <- s;
    let rec grow i k =
      if i = k then k else grow (i + 1) (enter s k nfa.Nfa.eps.(members.(i)))
    in
    grow 0 1
  in
  (* Folded view of a state, computed only for the states kept below:
     consuming transitions and accepts of its closure, and the epsilon
     edges that must survive (check-guarded targets of the closure). *)
  let rec live_edges acc = function
    | [] -> acc
    | ((_, v) as edge) :: rest ->
      live_edges (if live.(v) then edge :: acc else acc) rest
  in
  let rec guarded_eps acc = function
    | [] -> acc
    | v :: rest ->
      guarded_eps
        (if nfa.Nfa.checks.(v) <> [] && live.(v) then v :: acc else acc)
        rest
  in
  let folded_delta = Array.make n [] and folded_eps = Array.make n []
  and folded_accepts = Array.make n [] in
  let fold s =
    let k = closure s in
    let delta = ref [] and eps = ref [] and accepts = ref [] in
    for i = 0 to k - 1 do
      let u = members.(i) in
      delta := live_edges !delta nfa.Nfa.delta.(u);
      eps := guarded_eps !eps nfa.Nfa.eps.(u);
      accepts := List.rev_append nfa.Nfa.accepts.(u) !accepts
    done;
    folded_delta.(s) <- List.sort_uniq compare_edge !delta;
    folded_eps.(s) <- List.sort_uniq Int.compare !eps;
    folded_accepts.(s) <- List.sort_uniq compare_accept !accepts
  in
  (* Reachability over the folded automaton, from the selection start and
     every atom entry (atom entries stay live whatever the policy).  Kept
     states get [remap.(s) >= 0]. *)
  let remap = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let visit s =
    if remap.(s) < 0 then begin
      remap.(s) <- 0;
      stack.(!sp) <- s;
      incr sp
    end
  in
  let visit_edge (_, v) = visit v in
  visit mfa.Mfa.start;
  Array.iter (fun (atom : Afa.atom) -> visit atom.Afa.start) mfa.Mfa.atoms;
  while !sp > 0 do
    decr sp;
    let s = stack.(!sp) in
    fold s;
    List.iter visit_edge folded_delta.(s);
    List.iter visit folded_eps.(s)
  done;
  (* Rebuild with renumbering, in state order.  Qualifier and atom ids are
     unchanged, so checks and atom accepts carry over as they are. *)
  let n' = ref 0 in
  for s = 0 to n - 1 do
    if remap.(s) >= 0 then begin
      remap.(s) <- !n';
      incr n'
    end
  done;
  let renumber_edge (test, v) = (test, remap.(v)) in
  let delta = Array.make !n' [] and eps = Array.make !n' []
  and checks = Array.make !n' [] and accepts = Array.make !n' [] in
  for s = 0 to n - 1 do
    let s' = remap.(s) in
    if s' >= 0 then begin
      delta.(s') <- List.map renumber_edge folded_delta.(s);
      (* A guarded state folding back onto itself keeps no epsilon loop,
         as [Nfa.add_eps] drops one. *)
      eps.(s') <-
        List.filter_map
          (fun v -> if remap.(v) = s' then None else Some remap.(v))
          folded_eps.(s);
      checks.(s') <- nfa.Nfa.checks.(s);
      accepts.(s') <- folded_accepts.(s)
    end
  done;
  let optimized =
    Mfa.of_parts
      ~nfa:(Nfa.of_arrays ~delta ~eps ~checks ~accepts)
      ~start:remap.(mfa.Mfa.start) ~quals:mfa.Mfa.quals
      ~atoms:
        (Array.map
           (fun (atom : Afa.atom) ->
             { atom with Afa.start = remap.(atom.Afa.start) })
           mfa.Mfa.atoms)
  in
  ( optimized,
    {
      states_before = before_states;
      states_after = Mfa.n_states optimized;
      transitions_before = before_transitions;
      transitions_after = Mfa.n_transitions optimized;
    } )

let optimize mfa = fst (optimize_with_report mfa)
