(** HyPE over a pull-event stream — SMOQE's StAX mode.

    One sequential scan of the document, never materializing a tree: the
    driver assigns pre-order ids on the fly and fast-forwards through
    subtrees whose root matched no run (the engine is not consulted again
    until the corresponding end event).  Answers are reported as pre-order
    ids — identical to the ids a DOM parse of the same document would
    assign.

    With [~capture:true] the driver additionally buffers the markup of
    every candidate subtree while scanning (still one pass) and returns the
    serialized fragments of the final answers — the streaming counterpart
    of the output visualizer's text mode.  A fragment is byte-identical to
    the DOM serializer's compact form of the same node
    ([Serializer.subtree_to_string ~indent:false], or the escaped text of
    a text node).  Open captures share one buffer, which holds the
    outermost open candidate only; each closed candidate's fragment is
    kept until the final answers are known. *)

type result = {
  answers : int list;
  captured : (int * string) list;
      (** answer node id -> serialized fragment; [[]] unless capturing *)
  stats : Stats.t;
  cans_size : int;
  n_nodes : int;  (** total nodes scanned (elements + text) *)
  budget_hit : (string * string) option;
      (** [Some (what, limit)] when the scan stopped on a budget:
          [answers] is empty, [stats] holds the partial counters *)
}

type many_result = {
  by_query : int list array;  (** answers per batch query, document order *)
  by_query_captured : (int * string) list array;
      (** per-query serialized fragments; all [[]] unless capturing *)
  m_stats : Stats.t;
  m_cans_size : int;
  m_n_nodes : int;
  m_budget_hit : (string * string) option;
}

val run_many :
  ?capture:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Shared.t ->
  Smoqe_xml.Pull.t ->
  many_result
(** One scan answering every query of a shared-automaton batch
    ({!Smoqe_automata.Shared.merge}); the per-node capture store is shared
    and fragments demultiplex with the answers.  A tripped budget empties
    every query's answers. *)

val run_many_events :
  ?capture:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Shared.t ->
  Smoqe_xml.Pull.event list ->
  many_result
(** {!run_many} over an already-materialized event list. *)

val run :
  ?capture:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Mfa.t ->
  Smoqe_xml.Pull.t ->
  result
(** Every event scanned is one budget tick; the ["hype.step"] failpoint
    fires per event (and ["pull.read"] inside the parser itself).

    [use_tables] (default {!Smoqe_automata.Tables.enabled_default}) runs
    the table-driven engine over a per-run {e dynamic} table: the
    automaton's element names are pre-interned, unseen stream tags are
    interned on the fly.  [memo_cap] is forwarded to {!Engine.create}. *)

val run_events :
  ?capture:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Mfa.t ->
  Smoqe_xml.Pull.event list ->
  result
(** Same, over an already-materialized event list (used by tests to compare
    against the DOM mode). *)

val eval_string :
  ?capture:bool -> ?trace:Trace.t -> Smoqe_rxpath.Ast.path -> string -> result
(** Parse-compile-and-run convenience over an XML string. *)
