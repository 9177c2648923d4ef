module Tree = Smoqe_xml.Tree

type test =
  | Any_element
  | Element of string
  | Text_node

type state = int

type accept =
  | Select
  | Atom_accept of int

type t = {
  n_states : int;
  delta : (test * state) list array;
  eps : state list array;
  checks : int list array;
  accepts : accept list array;
}

(* The one label-matching semantics of the whole engine: every evaluator
   (generic HyPE, the table layer, the baselines) goes through here, so
   there is exactly one definition to test.  [name] is ignored unless the
   test is [Element _] on an element. *)
let matches_name test ~is_element ~name =
  match test with
  | Any_element -> is_element
  | Element s -> is_element && String.equal s name
  | Text_node -> not is_element

let test_matches test tree node =
  matches_name test ~is_element:(Tree.is_element tree node)
    ~name:(Tree.name tree node)

let pp_test ppf = function
  | Any_element -> Fmt.string ppf "*"
  | Element s -> Fmt.string ppf s
  | Text_node -> Fmt.string ppf "text()"

type builder = {
  mutable next : int;
  mutable b_delta : (state * test * state) list;
  mutable b_eps : (state * state) list;
  mutable b_checks : (state * int) list;
  mutable b_accepts : (state * accept) list;
}

let create_builder () =
  { next = 0; b_delta = []; b_eps = []; b_checks = []; b_accepts = [] }

let fresh_state b =
  let s = b.next in
  b.next <- s + 1;
  s

let check_state b s =
  if s < 0 || s >= b.next then invalid_arg "Nfa: unknown state"

let add_edge b s test s' =
  check_state b s;
  check_state b s';
  b.b_delta <- (s, test, s') :: b.b_delta

let add_eps b s s' =
  check_state b s;
  check_state b s';
  if s <> s' then b.b_eps <- (s, s') :: b.b_eps

let add_check b s qual =
  check_state b s;
  b.b_checks <- (s, qual) :: b.b_checks

let add_accept b s acc =
  check_state b s;
  b.b_accepts <- (s, acc) :: b.b_accepts

let freeze b =
  let n = b.next in
  let delta = Array.make n []
  and eps = Array.make n []
  and checks = Array.make n []
  and accepts = Array.make n [] in
  let add_once arr s v = if not (List.mem v arr.(s)) then arr.(s) <- v :: arr.(s) in
  List.iter (fun (s, test, s') -> add_once delta s (test, s')) b.b_delta;
  List.iter (fun (s, s') -> add_once eps s s') b.b_eps;
  List.iter (fun (s, q) -> add_once checks s q) b.b_checks;
  List.iter (fun (s, a) -> add_once accepts s a) b.b_accepts;
  { n_states = n; delta; eps; checks; accepts }

let of_arrays ~delta ~eps ~checks ~accepts =
  let n = Array.length delta in
  if Array.length eps <> n || Array.length checks <> n
     || Array.length accepts <> n
  then invalid_arg "Nfa.of_arrays: arrays of different lengths";
  let in_range v = if v < 0 || v >= n then invalid_arg "Nfa: unknown state" in
  Array.iter (List.iter (fun (_, v) -> in_range v)) delta;
  Array.iteri
    (fun s l ->
      List.iter
        (fun v ->
          in_range v;
          if v = s then invalid_arg "Nfa.of_arrays: epsilon self-loop")
        l)
    eps;
  { n_states = n; delta; eps; checks; accepts }

let eps_closure t states =
  let seen = Array.make t.n_states false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter visit t.eps.(s)
    end
  in
  List.iter visit states;
  let out = ref [] in
  for s = t.n_states - 1 downto 0 do
    if seen.(s) then out := s :: !out
  done;
  !out

let reachable_states t start =
  let seen = Array.make t.n_states false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter visit t.eps.(s);
      List.iter (fun (_, s') -> visit s') t.delta.(s)
    end
  in
  visit start;
  let out = ref [] in
  for s = t.n_states - 1 downto 0 do
    if seen.(s) then out := s :: !out
  done;
  !out

let n_transitions t =
  let total = ref 0 in
  Array.iter (fun l -> total := !total + List.length l) t.delta;
  Array.iter (fun l -> total := !total + List.length l) t.eps;
  !total
