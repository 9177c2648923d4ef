(** MFA optimization — the query-optimization techniques the demo turns on
    and off to show their impact (paper §3: "how SMOQE optimizes and
    evaluates Regular XPath queries").

    Three answer-preserving transformations, applied together by
    {!optimize}:

    - {b epsilon elimination}: consuming transitions, accept marks and
      residual epsilon edges are pulled back across check-free epsilon
      chains, so runs spend no time walking Thompson glue (check-guarded
      states cannot be crossed — their qualifier must be consulted at the
      node — and keep their incoming epsilon edges);
    - {b dead-transition pruning}: transitions into states from which no
      acceptance is reachable are dropped;
    - {b unreachable-state removal}: states no longer reachable from the
      selection start or any qualifier-atom entry are removed and the
      automaton is renumbered.

    The cost is one liveness pass over reverse edges, then an epsilon
    fold of each kept state only, found from the start and atom entries:
    linear in states + transitions, plus the sorting of each kept state's
    folded lists.

    Especially effective on rewritten view queries, whose product
    construction leaves long epsilon chains and unreachable type-layer
    copies.  Equivalence with the unoptimized automaton is property-tested;
    experiment E8 measures the size and evaluation-time impact. *)

val optimize : Mfa.t -> Mfa.t

type report = {
  states_before : int;
  states_after : int;
  transitions_before : int;
  transitions_after : int;
}

val optimize_with_report : Mfa.t -> Mfa.t * report

val pp_report : Format.formatter -> report -> unit
