(** Per-state "must" analysis for TAX pruning.

    Runs move strictly downward, so once a run enters a subtree it can only
    ever produce effects (candidate selections, atom accepts) {e inside}
    that subtree.  For each state the analysis computes the set of element
    labels (and whether a text node) that {b every} accepting path from the
    state still has to match.  If any such label is absent from a subtree's
    TAX descendant-type set, no run from that state can accept inside it —
    the subtree may be pruned.  This is what makes TAX effective even for
    queries with the descendant axis (paper §3, Indexer): wildcard steps
    impose no requirement, but the anchoring labels behind them do. *)

module String_set : Set.S with type elt = string

type need =
  | All
      (** no acceptance is reachable at all — descending is always useless *)
  | Req of String_set.t * bool
      (** labels every accepting path still needs; the flag marks a
          mandatory text-node test *)

val compute : Nfa.t -> need array
(** Greatest fixpoint over the (possibly cyclic) automaton graph, computed
    by a worklist over reverse edges.  Accepting states seed it; when a
    state's need changes, each predecessor meets its own need with the new
    contribution and is queued again if that changed it.  A need only
    descends — from [All] to a label set that shrinks, with the text flag
    clearing once — so a state is revisited at most (labels + 2) times,
    where labels counts the distinct labels the automaton tests, and the
    work is O((labels + 2) * transitions) set operations. *)

val live : Nfa.t -> bool array
(** [live.(s)] when some accepting state is reachable from [s] — exactly
    the states whose {!compute} need is not [All], found by one linear
    pass over reverse edges. *)

val useless : need -> in_subtree:(string -> bool) -> has_text:bool -> bool
(** [true] when some mandatory requirement cannot be met inside the
    subtree. *)
