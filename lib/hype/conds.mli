(** Deferred qualifier conditions.

    HyPE discovers candidate answers top-down, before the qualifiers
    guarding them have been evaluated (their truth depends on subtrees not
    yet traversed).  A run therefore carries the set of conditions it has
    assumed — "qualifier q holds at node n" — and a candidate records a
    disjunction of such sets, one per run that selected it.  Conditions are
    resolved when the traversal leaves the node (post-visit), and
    candidates are settled in a final pass over Cans.

    The evaluator numbers each (qualifier, node) condition with a dense
    int in visiting order.  Sets of them are hash-consed in a table: a set
    is an int id, equal sets have equal ids, and adding a condition to a
    set already built is a table probe, not an allocation. *)

type cond = int
(** A condition, numbered by the evaluator. *)

type t
(** A hash-consing table of condition sets (one per evaluation run). *)

type set = int
(** A conjunction of conditions, as its id in a table.  Ids are dense,
    from 0 ([empty]) to [count t - 1]. *)

val create : unit -> t
val count : t -> int

val seal : t -> unit
(** A promise that every condition added from now on is greater than
    every condition added before.  Sets stay canonical, and the table
    forgets what can no longer be built. *)

val empty : set
val is_empty : set -> bool

val add : t -> set -> cond -> set
val mem : t -> set -> cond -> bool
val union : t -> set -> set -> set

val for_all : t -> set -> (cond -> bool) -> bool
(** Does the predicate hold for every condition of the set? *)

val to_list : t -> set -> cond list
(** The conditions, ascending. *)

val cardinal : t -> set -> int
val subset : t -> set -> set -> bool

type dnf
(** A disjunction of condition sets, with subsumption: a set that is a
    superset of an existing one is never kept.  The empty set makes the
    whole disjunction unconditionally true. *)

val dnf_false : dnf
val dnf_is_false : dnf -> bool
val dnf_is_unconditional : dnf -> bool

val dnf_add : t -> dnf -> set -> dnf

val dnf_sets : dnf -> set list
(** The kept sets ([[]] when unconditional or false — distinguish with the
    predicates above). *)

val dnf_eval : t -> dnf -> (cond -> bool) -> bool
(** Truth under a complete valuation of the conditions. *)

val dnf_size : dnf -> int
(** Number of kept sets (0 for false, 0 for unconditional). *)

val pp_set : t -> Format.formatter -> set -> unit
val pp_dnf : t -> Format.formatter -> dnf -> unit
