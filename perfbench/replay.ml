(* The traced replay: each traced op calls, from outside the engine, the
   layer functions the engine called for it, each inside a span.

   The engine answers the op first (untraced); its stats say whether the
   plan came from the plan cache and whether tables were specialized, and
   the replay records compile and specialize spans exactly where the
   engine did that work.  The op span also holds what the engine does
   between layers — view routing, the document/index snapshot — which is
   what [core.unattributed_us] measures.  The replayed answers and
   fragments must equal the engine's. *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Pull = Smoqe_xml.Pull
module Parser = Smoqe_xml.Parser
module Validator = Smoqe_xml.Validator
module Serializer = Smoqe_xml.Serializer
module Rx_parser = Smoqe_rxpath.Parser
module Mfa = Smoqe_automata.Mfa
module Optimize = Smoqe_automata.Optimize
module Analysis = Smoqe_automata.Analysis
module Tables = Smoqe_automata.Tables
module Shared = Smoqe_automata.Shared
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Stats = Smoqe_hype.Stats
module Tax = Smoqe_tax.Tax
module Derive = Smoqe_security.Derive
module Rewriter = Smoqe_rewrite.Rewriter
module Canon = Smoqe_plan.Canon
module Engine = Smoqe.Engine

type plan = { mfa : Mfa.t; empty : bool; mutable tables : Tables.t option }

type batch_plan = {
  shared : Shared.t;
  slot_of : (string, int) Hashtbl.t;  (** query text -> owner position *)
  mutable batch_tables : Tables.t option;
}

type ctx = {
  engine : Engine.t;
  group : string;
  dtd : Dtd.t;
  bytes : string;
  mode : Engine.mode;
  plans : (string, plan) Hashtbl.t;  (** the replay's own plan cache *)
  mutable batch : batch_plan option;
}

let ctx ~engine ~group ~dtd ~bytes ~mode =
  { engine; group; dtd; bytes; mode; plans = Hashtbl.create 64; batch = None }

let use_tables = Tables.enabled_default ()

(* [span] without a recorder (work done outside the traced op) just runs. *)
let span (r : Spans.t option) ?counts name f =
  match r with None -> f () | Some r -> Spans.span r ?counts name f

let parse r text =
  match span r "rxpath.parse" (fun () -> Rx_parser.path_of_string text) with
  | Ok path -> path
  | Error msg -> failwith ("replay: " ^ msg)

let compile_member r view path =
  let mfa =
    span r "rewrite.rewrite"
      ~counts:(fun m -> [ ("mfa_states", Mfa.n_states m) ])
      (fun () -> Rewriter.rewrite view path)
  in
  span r "automata.optimize" (fun () -> Optimize.optimize mfa)

let compile r c view text =
  let path = parse r text in
  ignore (Sys.opaque_identity (Canon.to_key path));
  let mfa = compile_member r view path in
  let empty =
    span r "automata.emptiness" (fun () ->
        Analysis.satisfiable mfa c.dtd = Analysis.Empty)
  in
  { mfa; empty; tables = None }

let compile_batch r view texts =
  let parsed = List.map (fun text -> (text, parse r text)) texts in
  let keyed = List.map (fun (text, path) -> (text, Canon.to_key path, path)) parsed in
  let uniq =
    List.sort_uniq (fun (_, a, _) (_, b, _) -> compare a b) keyed
  in
  let mfas = Array.of_list (List.map (fun (_, _, p) -> compile_member r view p) uniq) in
  let shared =
    span r "automata.merge"
      ~counts:(fun (sh : Shared.t) -> [ ("shared_states", sh.Shared.merged_states) ])
      (fun () -> Shared.merge mfas)
  in
  let slot_of = Hashtbl.create 16 in
  let keys = List.mapi (fun i (_, k, _) -> (k, i)) uniq in
  List.iter (fun (text, k, _) -> Hashtbl.replace slot_of text (List.assoc k keys)) keyed;
  { shared; slot_of; batch_tables = None }

let the_view c =
  match Engine.view c.engine ~group:c.group with
  | Some v -> v
  | None -> failwith "replay: unknown group"

let specialize r nfa tree =
  if use_tables then
    Some (span r "automata.specialize" (fun () -> Tables.of_tree nfa tree))
  else None

(* The engine's table discipline: reuse a frozen table built for this very
   tree, otherwise specialize — and always when the engine reports it did. *)
let tables r ~spec_us ~current nfa tree =
  match current with
  | Some tb when spec_us = 0 && Tables.built_for tb tree -> Some tb
  | _ -> specialize r nfa tree

let traverse_counts tree (s : Stats.t) =
  [ ("nodes", Tree.n_nodes tree);
    ("nodes_entered", s.Stats.nodes_entered);
    ("nodes_skipped_dead", s.Stats.nodes_skipped_dead);
    ("nodes_pruned_tax", s.Stats.nodes_pruned_tax);
    ("candidates", s.Stats.candidates);
    ("answers", s.Stats.answers);
    ("memo_hits", s.Stats.memo_hits);
    ("memo_misses", s.Stats.memo_misses) ]

let answer_xml tree n =
  if Tree.is_text tree n then begin
    let backing, off, len = Tree.content_slice tree n in
    let buf = Buffer.create (len + 8) in
    Serializer.add_escaped_text buf backing off len;
    Buffer.contents buf
  end
  else Serializer.subtree_to_string ~indent:false tree n

let bytes_counts xml =
  [ ("answer_bytes", List.fold_left (fun a s -> a + String.length s) 0 xml) ]

let serialize r tree answers =
  span r "xml.serialize" ~counts:bytes_counts (fun () ->
      List.map (answer_xml tree) answers)

let drain bytes =
  let p = Pull.of_string bytes in
  let rec go n =
    match Pull.cursor_next p with Pull.Cursor_eof -> n | _ -> go (n + 1)
  in
  go 0

(* Replay one single-query op the engine answered as [o]; true when the
   replay's answers and fragments equal the engine's. *)
let query rs c text (o : Engine.outcome) =
  let hit = o.Engine.stats.Stats.plan_cache_hit = 1 in
  (* A plan the engine compiled before tracing began is compiled here,
     outside the op: the engine did not compile it for this op. *)
  if hit && not (Hashtbl.mem c.plans text) then begin
    let p = compile None c (the_view c) text in
    p.tables <- specialize None p.mfa.Mfa.nfa (Engine.document c.engine);
    Hashtbl.replace c.plans text p
  end;
  let r = Some rs in
  let answers, xml =
    Spans.op rs "op.query" (fun () ->
        let view = the_view c in
        let tree = Engine.document c.engine and tax = Engine.index c.engine in
        let plan =
          if hit then Hashtbl.find c.plans text
          else begin
            let p = compile r c view text in
            Hashtbl.replace c.plans text p;
            p
          end
        in
        if plan.empty then ([], [])
        else
          match c.mode with
          | Engine.Dom ->
            let tables =
              tables r ~spec_us:o.Engine.stats.Stats.table_spec_us
                ~current:plan.tables plan.mfa.Mfa.nfa tree
            in
            plan.tables <- tables;
            let res =
              span r "hype.traverse"
                ~counts:(fun (res : Eval_dom.result) ->
                  traverse_counts tree res.Eval_dom.stats)
                (fun () ->
                  Eval_dom.run ?tax ?tables ~use_tables plan.mfa tree)
            in
            (res.Eval_dom.answers, serialize r tree res.Eval_dom.answers)
          | Engine.Stax ->
            ignore
              (span r "xml.lex" ~counts:(fun n -> [ ("events", n) ]) (fun () ->
                   drain c.bytes));
            let res =
              span r "hype.stax"
                ~counts:(fun (res : Eval_stax.result) ->
                  traverse_counts tree res.Eval_stax.stats)
                (fun () ->
                  Eval_stax.run ~capture:true ~use_tables plan.mfa
                    (Pull.of_string c.bytes))
            in
            (res.Eval_stax.answers, List.map snd res.Eval_stax.captured))
  in
  answers = o.Engine.answers && xml = o.Engine.answer_xml

(* Replay one shared-pass batch op; [joint] is the engine's joint pass
   statistics and [results] its per-member outcomes. *)
let batch rs c texts (results : (Engine.outcome, _) result array)
    (joint : Stats.t) =
  let hit = joint.Stats.plan_cache_hit = 1 in
  if hit && c.batch = None then begin
    let p = compile_batch None (the_view c) texts in
    p.batch_tables <-
      specialize None p.shared.Shared.mfa.Mfa.nfa (Engine.document c.engine);
    c.batch <- Some p
  end;
  let r = Some rs in
  let by_text =
    Spans.op rs "op.batch" (fun () ->
        let view = the_view c in
        let tree = Engine.document c.engine and tax = Engine.index c.engine in
        let plan =
          match c.batch with
          | Some p when hit -> p
          | _ ->
            let p = compile_batch r view texts in
            c.batch <- Some p;
            p
        in
        let sh = plan.shared in
        let tables =
          tables r ~spec_us:joint.Stats.table_spec_us ~current:plan.batch_tables
            sh.Shared.mfa.Mfa.nfa tree
        in
        plan.batch_tables <- tables;
        let res =
          span r "hype.traverse"
            ~counts:(fun (res : Eval_dom.many_result) ->
              traverse_counts tree res.Eval_dom.m_stats)
            (fun () -> Eval_dom.run_many ?tax ?tables ~use_tables sh tree)
        in
        let memo = Hashtbl.create 256 in
        let xml_of =
          span r "xml.serialize"
            ~counts:(fun _ ->
              bytes_counts (Hashtbl.fold (fun _ s acc -> s :: acc) memo []))
            (fun () ->
              Array.iter
                (List.iter (fun n ->
                     if not (Hashtbl.mem memo n) then
                       Hashtbl.add memo n (answer_xml tree n)))
                res.Eval_dom.by_query;
              fun n -> Hashtbl.find memo n)
        in
        List.map
          (fun text ->
            let answers = res.Eval_dom.by_query.(Hashtbl.find plan.slot_of text) in
            (answers, List.map xml_of answers))
          texts)
  in
  List.for_all2
    (fun (answers, xml) -> function
      | Ok (o : Engine.outcome) ->
        answers = o.Engine.answers && xml = o.Engine.answer_xml
      | Error _ -> false)
    by_text (Array.to_list results)

(* The set-up path Engine.of_string_robust -> register_policy ->
   build_index, layer by layer. *)
let setup rs ~dtd ~policy bytes =
  let r = Some rs in
  Spans.op rs "op.setup" (fun () ->
      let tree =
        match
          span r "xml.parse"
            ~counts:(fun _ -> [ ("bytes", String.length bytes) ])
            (fun () -> Parser.tree_of_string_res bytes)
        with
        | Ok tree -> tree
        | Error msg -> failwith ("replay: " ^ msg)
      in
      (match span r "xml.validate" (fun () -> Validator.validate dtd tree) with
      | Ok () -> ()
      | Error _ -> failwith "replay: document invalid");
      ignore (span r "security.derive" (fun () -> Derive.derive policy));
      ignore (span r "tax.build" (fun () -> Tax.build tree)))
