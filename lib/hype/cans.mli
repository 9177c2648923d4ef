(** Cans — the candidate-answer store (paper §3, Evaluator).

    During its single document pass HyPE appends every potential answer
    node here together with the disjunction of condition sets under which
    it was selected.  After the pass, {!resolve} settles the candidates in
    one sweep using the by-then-complete qualifier valuation.  Cans is
    "often much smaller than the XML document tree" — experiment E6
    measures exactly {!size} against document size. *)

type t

val create : unit -> t

val add : t -> node:int -> Conds.set -> unit
(** Record that [node] was selected by a run assuming these conditions. *)

val size : t -> int
(** Number of candidate entries stored (a node selected by several runs
    counts once per run). *)

val entries : t -> Conds.t -> (int * Conds.dnf) list
(** Candidates grouped per node in document order, with their pending
    conditions as a disjunction (sets are ids of the given table). *)

val resolve : t -> holds:(Conds.set -> bool) -> int list
(** The final answer: candidates with a condition set that holds under
    the valuation, in document order. *)
