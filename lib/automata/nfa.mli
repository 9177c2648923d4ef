(** Nondeterministic finite automata over XML node tests.

    One NFA holds the {e entire} state space of an MFA: the selection path
    automaton and every qualifier atom automaton live side by side (paper
    §3, Rewriter: the MFA is "an NFA annotated with alternating automata").
    States carry three kinds of decoration:

    - {b consuming transitions} ([delta]) move from a node to one of its
      children, guarded by a node test;
    - {b epsilon transitions} stay on the current node;
    - {b checks}: qualifier ids (indices into the owning MFA's table) that
      must hold at the current node for a run to pass through the state;
    - {b accepts}: reaching the state selects the current node as a
      candidate answer ([Select]) or witnesses a qualifier atom
      ([Atom_accept]).

    Build with the mutable {!builder}, then {!freeze}. *)

type test =
  | Any_element  (** matches any element child *)
  | Element of string
  | Text_node  (** matches a text child *)

type state = int

type accept =
  | Select  (** selection-path acceptance: the node is a candidate answer *)
  | Atom_accept of int  (** accept for qualifier atom [i] *)

type t = private {
  n_states : int;
  delta : (test * state) list array;
  eps : state list array;
  checks : int list array;  (** qualifier ids guarding the state *)
  accepts : accept list array;
}

val matches_name : test -> is_element:bool -> name:string -> bool
(** The single label-matching semantics shared by every evaluator (the
    generic HyPE scan, the {!Tables} layer, the baselines).  [name] is
    only consulted for [Element _] tests on elements. *)

val test_matches : test -> Smoqe_xml.Tree.t -> Smoqe_xml.Tree.node -> bool
(** [matches_name] applied to a tree node. *)

val pp_test : Format.formatter -> test -> unit

(** {1 Building} *)

type builder

val create_builder : unit -> builder
val fresh_state : builder -> state
val add_edge : builder -> state -> test -> state -> unit
val add_eps : builder -> state -> state -> unit
val add_check : builder -> state -> int -> unit
val add_accept : builder -> state -> accept -> unit
val freeze : builder -> t

val of_arrays :
  delta:(test * state) list array ->
  eps:state list array ->
  checks:int list array ->
  accepts:accept list array ->
  t
(** An automaton from per-state lists, taken as they are, in the shape
    {!freeze} leaves them: every list duplicate-free and no epsilon
    self-loop.  Raises [Invalid_argument] on arrays of different lengths,
    a state out of range or an epsilon self-loop; duplicates are not
    checked. *)

(** {1 Inspection} *)

val eps_closure : t -> state list -> state list
(** Forward closure under epsilon transitions only (checks are {e not}
    interpreted here — evaluators handle them).  Sorted, duplicate-free. *)

val reachable_states : t -> state -> state list
(** States reachable through any transition kind. *)

val n_transitions : t -> int
(** Total number of consuming + epsilon transitions (a size measure). *)
