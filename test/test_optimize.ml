(* Tests for the MFA optimizer: size reduction and answer preservation. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Serializer = Smoqe_xml.Serializer
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Semantics = Smoqe_rxpath.Semantics
module Compile = Smoqe_automata.Compile
module Mfa = Smoqe_automata.Mfa
module Optimize = Smoqe_automata.Optimize
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Rewriter = Smoqe_rewrite.Rewriter
module Derive = Smoqe_security.Derive
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Materialize = Smoqe_security.Materialize
module Dtd = Smoqe_xml.Dtd

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let test_shrinks_thompson_glue () =
  (* Stars and unions create epsilon chains; the optimizer must fold them. *)
  let mfa = Compile.compile (parse "(a | b)*/c/(d)*") in
  let opt, report = Optimize.optimize_with_report mfa in
  Alcotest.(check bool)
    (Fmt.str "%a" Optimize.pp_report report)
    true
    (Mfa.n_states opt < Mfa.n_states mfa);
  (* No check-free epsilon edges may remain. *)
  let nfa = opt.Mfa.nfa in
  Array.iteri
    (fun _ eps ->
      List.iter
        (fun v ->
          Alcotest.(check bool) "eps targets are check-guarded" true
            (nfa.Smoqe_automata.Nfa.checks.(v) <> []))
        eps)
    nfa.Smoqe_automata.Nfa.eps

let test_drops_unreachable_branch () =
  (* A branch on a label that cannot accept (dead end after the label is
     not possible here, so craft one via the builder). *)
  let b = Mfa.create_builder () in
  let s0 = Mfa.fresh_state b in
  let s1 = Mfa.fresh_state b in
  let dead = Mfa.fresh_state b in
  let dead2 = Mfa.fresh_state b in
  Mfa.add_edge b s0 (Smoqe_automata.Nfa.Element "a") s1;
  Mfa.add_select b s1;
  (* dead branch: consumes b, goes nowhere *)
  Mfa.add_edge b s0 (Smoqe_automata.Nfa.Element "b") dead;
  Mfa.add_edge b dead (Smoqe_automata.Nfa.Element "c") dead2;
  let mfa = Mfa.freeze b ~start:s0 in
  let opt, report = Optimize.optimize_with_report mfa in
  Alcotest.(check int) "two states left" 2 report.Optimize.states_after;
  Alcotest.(check int) "one transition left" 1
    (Mfa.n_transitions opt)

let test_preserves_answers_on_suite () =
  let doc = Hospital.generate ~seed:77 ~n_patients:12 ~recursion_depth:3 () in
  List.iter
    (fun (name, q) ->
      let mfa = Compile.compile q in
      let opt = Optimize.optimize mfa in
      Alcotest.(check (list int))
        (name ^ " dom")
        (Eval_dom.run mfa doc).Eval_dom.answers
        (Eval_dom.run opt doc).Eval_dom.answers;
      let events = Xml_parser.events_of_tree doc in
      Alcotest.(check (list int))
        (name ^ " stax")
        (Eval_stax.run_events mfa events).Eval_stax.answers
        (Eval_stax.run_events opt events).Eval_stax.answers)
    Queries.parsed

let test_shrinks_rewritten_mfa () =
  (* The product construction leaves unreachable type-layer copies: the
     optimizer should cut a large fraction. *)
  let view = Derive.derive Hospital.policy in
  let q = parse "patient[treatment/medication = 'autism']/treatment" in
  let mfa = Rewriter.rewrite view q in
  let opt, report = Optimize.optimize_with_report mfa in
  Alcotest.(check bool)
    (Fmt.str "%a" Optimize.pp_report report)
    true
    (2 * Mfa.n_states opt < Mfa.n_states mfa);
  let doc = Hospital.generate ~seed:78 ~n_patients:10 ~recursion_depth:2 () in
  Alcotest.(check (list int))
    "rewritten answers preserved"
    (Eval_dom.run mfa doc).Eval_dom.answers
    (Eval_dom.run opt doc).Eval_dom.answers

let test_idempotent () =
  let mfa = Compile.compile (parse "(a | b)*/c[d and not(e)]") in
  let once = Optimize.optimize mfa in
  let twice, report = Optimize.optimize_with_report once in
  Alcotest.(check int) "states stable" (Mfa.n_states once)
    report.Optimize.states_after;
  Alcotest.(check int) "transitions stable"
    (Mfa.n_transitions once)
    (Mfa.n_transitions twice)

(* Allocation guard: the optimizer's cost stays linear in the automaton,
   in the style of the table path's per-node allocation gate.  The set
   mixes the hospital view suite with rewritten queries over one recursive
   12-type schema, twelve of whose MFAs have 1,100 to 3,800 states.  The
   worst ratio measured is about 20 minor words per state or transition
   (a 45-state automaton, whose work arrays are minor-heap sized); the gate
   is twice that.  A closure table per state, or must-label set sweeps
   repeated until stable, cost 98 to 259 on this set. *)
let test_alloc_linear () =
  let hospital = Derive.derive Hospital.policy in
  let dtd = Random_dtd.generate ~seed:3 ~n_types:12 ~recursion:true () in
  let view = Derive.derive (Random_dtd.random_policy ~seed:1003 dtd) in
  let tags = Dtd.element_names (Derive.view_dtd view) in
  let mfas =
    List.map (fun (_, q) -> Rewriter.rewrite hospital (parse q)) Queries.view_suite
    @ List.init 20 (fun i ->
          Rewriter.rewrite view
            (Random_dtd.random_query ~seed:(i + 1) ~size:6 ~tags ()))
  in
  Alcotest.(check bool) "the set holds an MFA of over 1,000 states" true
    (List.exists (fun m -> Mfa.n_states m > 1000) mfas);
  List.iter
    (fun mfa ->
      let size = Mfa.n_states mfa + Mfa.n_transitions mfa in
      ignore (Optimize.optimize mfa);
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Optimize.optimize mfa));
      let words = Gc.minor_words () -. w0 in
      if words > 40. *. float_of_int size then
        Alcotest.failf "%.0f minor words to optimize %d states + transitions \
                        (%.1f per unit; gate: 40)"
          words size (words /. float_of_int size))
    mfas

(* Property: optimized MFA = oracle on random docs and queries. *)
let tag_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]
let value_gen = QCheck2.Gen.oneofl [ "x"; "y" ]

let rec path_gen n =
  QCheck2.Gen.(
    if n = 0 then
      oneof
        [ return Ast.Self; map (fun t -> Ast.Tag t) tag_gen;
          return Ast.Wildcard; return Ast.Text ]
    else
      frequency
        [
          (3, map (fun t -> Ast.Tag t) tag_gen);
          (3, map2 Ast.seq (path_gen (n / 2)) (path_gen (n / 2)));
          (2, map2 Ast.union (path_gen (n / 2)) (path_gen (n / 2)));
          (2, map Ast.star (path_gen (n - 1)));
          (2, map2 Ast.filter (path_gen (n / 2)) (qual_gen (n / 2)));
        ])

and qual_gen n =
  QCheck2.Gen.(
    if n = 0 then
      oneof
        [
          map (fun p -> Ast.Exists p) (path_gen 0);
          map2 (fun p v -> Ast.Value_eq (p, v)) (path_gen 0) value_gen;
        ]
    else
      frequency
        [
          (3, map (fun p -> Ast.Exists p) (path_gen (n - 1)));
          (2, map2 (fun p v -> Ast.Value_eq (p, v)) (path_gen (n - 1)) value_gen);
          (2, map Ast.q_not (qual_gen (n - 1)));
          (1, map2 Ast.q_and (qual_gen (n / 2)) (qual_gen (n / 2)));
          (1, map2 Ast.q_or (qual_gen (n / 2)) (qual_gen (n / 2)));
        ])

let source_gen =
  QCheck2.Gen.(
    sized_size (int_bound 5)
    @@ fix (fun self n ->
           if n = 0 then
             oneof
               [
                 map (fun s -> Tree.T s) value_gen;
                 map (fun t -> Tree.E (t, [], [])) tag_gen;
               ]
           else
             map2
               (fun t kids -> Tree.E (t, [], kids))
               tag_gen
               (list_size (int_bound 3) (self (n / 2)))))

let doc_gen =
  QCheck2.Gen.(
    map
      (fun kids -> Tree.of_source (Tree.E ("r", [], kids)))
      (list_size (int_bound 4) source_gen))

let print_case (t, p) =
  Printf.sprintf "doc: %s\nquery: %s"
    (Serializer.to_string ~indent:false t)
    (Pretty.path_to_string p)

let prop_optimized_equals_oracle =
  QCheck2.Test.make ~count:1000 ~name:"optimized MFA = oracle"
    ~print:print_case
    QCheck2.Gen.(pair doc_gen (sized_size (int_bound 8) path_gen))
    (fun (t, p) ->
      let opt = Optimize.optimize (Compile.compile p) in
      (Eval_dom.run opt t).Eval_dom.answers = Semantics.answer_list t p)

(* Property: optimized rewritten view queries = the materialized view.
   Rewriting through a view over a recursive schema yields the product
   automata the optimizer is for — long epsilon chains, check-guarded
   states, dead type-layer copies — so they get their own oracle: query the
   materialized view and map the answers back, which shares no code with
   the rewriter or the optimizer. *)
let prop_optimized_rewritten_equals_materialize =
  QCheck2.Test.make ~count:150 ~name:"optimized rewritten MFA = materialized view"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let dtd =
        Random_dtd.generate ~seed ~n_types:(3 + (seed mod 8)) ~recursion:true ()
      in
      let policy = Random_dtd.random_policy ~seed:(seed * 3 + 1) dtd in
      match
        ( Derive.derive policy,
          Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:2 dtd )
      with
      | exception (Derive.Unsupported _ | Docgen.No_finite_expansion _) -> true
      | view, doc ->
        let tags = Dtd.element_names (Derive.view_dtd view) in
        let q = Random_dtd.random_query ~seed:(seed * 7 + 3) ~size:6 ~tags () in
        let opt = Optimize.optimize (Rewriter.rewrite view q) in
        let expected = Materialize.doc_answers view doc q in
        let dom = (Eval_dom.run opt doc).Eval_dom.answers in
        let stax =
          (Eval_stax.run_events opt (Xml_parser.events_of_tree doc))
            .Eval_stax.answers
        in
        List.sort_uniq compare dom = expected
        && List.sort_uniq compare stax = expected)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_optimized_equals_oracle; prop_optimized_rewritten_equals_materialize ]

let () =
  Alcotest.run "smoqe_optimize"
    [
      ( "transformations",
        [
          Alcotest.test_case "folds thompson glue" `Quick
            test_shrinks_thompson_glue;
          Alcotest.test_case "drops dead branches" `Quick
            test_drops_unreachable_branch;
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "allocation linear in size" `Quick test_alloc_linear;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "query suite" `Quick test_preserves_answers_on_suite;
          Alcotest.test_case "rewritten views" `Quick test_shrinks_rewritten_mfa;
        ] );
      ("properties", qsuite);
    ]
