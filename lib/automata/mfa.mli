(** Mixed finite state automata (MFA) — the query representation of SMOQE.

    An MFA is a selection NFA annotated with alternating automata for the
    qualifiers (paper §3, Rewriter; Fig. 4).  All component automata share
    one state space ({!Nfa.t}); [quals] maps qualifier ids (referenced by
    state checks) to formulas, and [atoms] maps atom ids to their run entry
    points.

    The {!builder} is shared by query compilation ({!Compile}) and view
    rewriting ([Smoqe_rewrite.Rewriter]), which both emit MFAs. *)

type t = private {
  nfa : Nfa.t;
  start : Nfa.state;
  quals : Afa.formula array;
  atoms : Afa.atom array;
}

(** {1 Building} *)

type builder

val create_builder : unit -> builder

val fresh_state : builder -> Nfa.state
val add_edge : builder -> Nfa.state -> Nfa.test -> Nfa.state -> unit
val add_eps : builder -> Nfa.state -> Nfa.state -> unit
val add_select : builder -> Nfa.state -> unit

val add_qual : builder -> Afa.formula -> int
(** Register a qualifier formula; returns its id. *)

val add_check : builder -> Nfa.state -> int -> unit
(** Guard a state with a registered qualifier. *)

val add_atom : builder -> start:Nfa.state -> value:string option -> int
(** Register a qualifier atom; returns its id.  Mark its accepting states
    with [Nfa.Atom_accept id] via {!add_accept_atom}. *)

val add_accept_atom : builder -> Nfa.state -> int -> unit

val freeze : builder -> start:Nfa.state -> t

val of_parts :
  nfa:Nfa.t -> start:Nfa.state -> quals:Afa.formula array ->
  atoms:Afa.atom array -> t
(** Assemble an MFA from an already frozen automaton, for transformations
    that produce one directly ({!Optimize}).  Raises [Invalid_argument]
    if [start] or an atom entry is out of range. *)

(** {1 Measures} *)

val n_states : t -> int
val n_transitions : t -> int
val n_quals : t -> int
val n_atoms : t -> int

val size : t -> int
(** States + transitions + formula sizes: the size measure reported by the
    rewriting experiment (E5). *)
