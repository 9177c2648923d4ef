type t = {
  nfa : Nfa.t;
  start : Nfa.state;
  quals : Afa.formula array;
  atoms : Afa.atom array;
}

type builder = {
  nb : Nfa.builder;
  mutable rev_quals : Afa.formula list;
  mutable n_quals : int;
  mutable rev_atoms : Afa.atom list;
  mutable n_atoms : int;
}

let create_builder () =
  {
    nb = Nfa.create_builder ();
    rev_quals = [];
    n_quals = 0;
    rev_atoms = [];
    n_atoms = 0;
  }

let fresh_state b = Nfa.fresh_state b.nb
let add_edge b s test s' = Nfa.add_edge b.nb s test s'
let add_eps b s s' = Nfa.add_eps b.nb s s'
let add_select b s = Nfa.add_accept b.nb s Nfa.Select

let add_qual b f =
  let id = b.n_quals in
  b.rev_quals <- f :: b.rev_quals;
  b.n_quals <- id + 1;
  id

let add_check b s qual = Nfa.add_check b.nb s qual

let add_atom b ~start ~value =
  let id = b.n_atoms in
  b.rev_atoms <- { Afa.start; value } :: b.rev_atoms;
  b.n_atoms <- id + 1;
  id

let add_accept_atom b s id = Nfa.add_accept b.nb s (Nfa.Atom_accept id)

let freeze b ~start =
  {
    nfa = Nfa.freeze b.nb;
    start;
    quals = Array.of_list (List.rev b.rev_quals);
    atoms = Array.of_list (List.rev b.rev_atoms);
  }

let of_parts ~nfa ~start ~quals ~atoms =
  let n = nfa.Nfa.n_states in
  let in_range s = if s < 0 || s >= n then invalid_arg "Mfa: unknown state" in
  in_range start;
  Array.iter (fun (atom : Afa.atom) -> in_range atom.Afa.start) atoms;
  { nfa; start; quals; atoms }

let n_states t = t.nfa.Nfa.n_states
let n_transitions t = Nfa.n_transitions t.nfa
let n_quals t = Array.length t.quals
let n_atoms t = Array.length t.atoms

let size t =
  let formulas =
    Array.fold_left (fun acc f -> acc + Afa.size f) 0 t.quals
  in
  n_states t + n_transitions t + formulas
