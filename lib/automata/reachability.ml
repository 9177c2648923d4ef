module String_set = Set.Make (String)

type need =
  | All
  | Req of String_set.t * bool

(* Meet in the lattice ordered by "requires more": All is top, smaller
   requirement sets are lower.  Alternation (two ways to accept) can only
   rely on what both ways require. *)
let meet a b =
  match a, b with
  | All, x | x, All -> x
  | Req (la, ta), Req (lb, tb) ->
    Req (String_set.inter la lb, ta && tb)

(* Sequencing a node test before a continuation adds its requirement. *)
let after_test test k =
  match k with
  | All -> All
  | Req (labels, text) ->
    (match test with
    | Nfa.Any_element -> k
    | Nfa.Element s -> Req (String_set.add s labels, text)
    | Nfa.Text_node -> Req (labels, true))

let equal a b =
  match a, b with
  | All, All -> true
  | Req (la, ta), Req (lb, tb) -> ta = tb && String_set.equal la lb
  | All, Req _ | Req _, All -> false

(* Reverse edges in compressed form: the predecessors of [v] are [src.(i)],
   reached over [test.(i)], for [off.(v) <= i < off.(v + 1)].  An epsilon
   edge is recorded as [Any_element]: neither adds a requirement.  [test]
   is filled only when asked for. *)
type rev_edges = { off : int array; src : int array; test : Nfa.test array }

let reverse ~tests (nfa : Nfa.t) =
  let n = nfa.Nfa.n_states in
  let off = Array.make (n + 1) 0 in
  let count v = off.(v) <- off.(v) + 1 in
  let count_edge (_, v) = count v in
  for s = 0 to n - 1 do
    List.iter count_edge nfa.Nfa.delta.(s);
    List.iter count nfa.Nfa.eps.(s)
  done;
  (* Prefix sums put [off.(v)] at the end of [v]'s slice; filling the
     slice backwards leaves it at its start. *)
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let m = off.(n) in
  let src = Array.make m 0
  and test = if tests then Array.make m Nfa.Any_element else [||] in
  let add s t v =
    let i = off.(v) - 1 in
    off.(v) <- i;
    src.(i) <- s;
    if tests then test.(i) <- t
  in
  let rec add_edges s = function
    | [] -> ()
    | (t, v) :: rest -> add s t v; add_edges s rest
  and add_eps s = function
    | [] -> ()
    | v :: rest -> add s Nfa.Any_element v; add_eps s rest
  in
  for s = 0 to n - 1 do
    add_edges s nfa.Nfa.delta.(s);
    add_eps s nfa.Nfa.eps.(s)
  done;
  { off; src; test }

let live (nfa : Nfa.t) =
  let n = nfa.Nfa.n_states in
  let r = reverse ~tests:false nfa in
  let live = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let mark s =
    if not live.(s) then begin
      live.(s) <- true;
      stack.(!sp) <- s;
      incr sp
    end
  in
  for s = 0 to n - 1 do
    if nfa.Nfa.accepts.(s) <> [] then mark s
  done;
  while !sp > 0 do
    decr sp;
    let v = stack.(!sp) in
    for i = r.off.(v) to r.off.(v + 1) - 1 do
      mark r.src.(i)
    done
  done;
  live

(* Worklist form of the greatest fixpoint.  A state's need only descends,
   so when [v] changes each predecessor can fold the new contribution into
   its own need instead of re-reading all its successors: the meet over
   every value [v] has held equals the meet with its latest one. *)
let compute (nfa : Nfa.t) =
  let n = nfa.Nfa.n_states in
  let r = reverse ~tests:true nfa in
  let needs = Array.make n All in
  (* FIFO ring: a state is queued at most once at a time. *)
  let queue = Array.make (max n 1) 0 and queued = Array.make n false in
  let head = ref 0 and size = ref 0 in
  let push s =
    if not queued.(s) then begin
      queued.(s) <- true;
      queue.((!head + !size) mod n) <- s;
      incr size
    end
  in
  (* Accepting states require nothing further. *)
  for s = 0 to n - 1 do
    if nfa.Nfa.accepts.(s) <> [] then begin
      needs.(s) <- Req (String_set.empty, false);
      push s
    end
  done;
  while !size > 0 do
    let v = queue.(!head) in
    head := (!head + 1) mod n;
    decr size;
    queued.(v) <- false;
    let nv = needs.(v) in
    for i = r.off.(v) to r.off.(v + 1) - 1 do
      let u = r.src.(i) in
      let old = needs.(u) in
      let updated = meet old (after_test r.test.(i) nv) in
      if not (equal updated old) then begin
        needs.(u) <- updated;
        push u
      end
    done
  done;
  needs

let useless need ~in_subtree ~has_text =
  match need with
  | All -> true
  | Req (labels, text) ->
    (text && not has_text)
    || String_set.exists (fun l -> not (in_subtree l)) labels
