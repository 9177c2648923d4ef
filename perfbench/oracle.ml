(* The answer oracle: every op's answers against a naive evaluation of the
   query on the materialized view (Materialize.doc_answers), computed on
   the document version the op ran against.

   Ops are only recorded while the loop runs; the reference answers are
   computed afterwards, outside the timed loop, from the workload's own
   document bytes and its own replay of the write schedule — never from
   the engine's state. *)

module Tree = Smoqe_xml.Tree
module Parser = Smoqe_xml.Parser
module Derive = Smoqe_security.Derive
module Materialize = Smoqe_security.Materialize
module Engine = Smoqe.Engine

type answer = { query : string; ids : string; fragments_ok : bool }

type entry = { doc : int; version : int; answers : answer list }

type t = {
  mutable entries : entry list;  (** most recent first *)
  mutable writes : (int * Tree.source) list;
      (** applied writes on document 0, most recent first: (visit id, new
          visit) *)
}

let create () = { entries = []; writes = [] }

let encode ids =
  Digest.string
    (String.concat "," (List.map string_of_int (List.sort_uniq compare ids)))

let answer query (o : Engine.outcome) =
  { query; ids = encode o.Engine.answers;
    fragments_ok = List.length o.Engine.answer_xml = List.length o.Engine.answers }

(* [version] is the number of writes applied before the op ran. *)
let record t ~doc ~version answers =
  t.entries <- { doc; version; answers } :: t.entries

let record_write t ~target visit = t.writes <- (target, visit) :: t.writes

(* The number of recorded ops with at least one wrong answer. *)
let failures t (inputs : Inputs.t) =
  let base = Array.map (fun d -> Parser.tree_of_string d.Inputs.bytes) inputs.docs in
  let views = Array.map (fun d -> Derive.derive d.Inputs.policy) inputs.docs in
  let writes = Array.of_list (List.rev t.writes) in
  (* Versions of document 0, built on demand in write order. *)
  let versions = Hashtbl.create 16 in
  Hashtbl.replace versions 0 base.(0);
  let rec tree_at doc version =
    if doc <> 0 then base.(doc)
    else
      match Hashtbl.find_opt versions version with
      | Some tr -> tr
      | None ->
        let prev = tree_at 0 (version - 1) in
        let target, visit = writes.(version - 1) in
        let tr = Tree.replace_subtree prev target visit in
        Hashtbl.replace versions version tr;
        (* older versions are no longer needed: entries arrive in order *)
        Hashtbl.remove versions (version - 1);
        tr
  in
  (* Materialize.doc_answers, with one materialization per document
     version shared by all the queries asked of it; entries arrive sorted
     by version, so only the current one is kept. *)
  let current = ref None in
  let reference doc version query =
    let m, memo =
      match !current with
      | Some (d, v, m, memo) when d = doc && v = version -> (m, memo)
      | _ ->
        let m = Materialize.materialize views.(doc) (tree_at doc version) in
        let memo = Hashtbl.create 16 in
        current := Some (doc, version, m, memo);
        (m, memo)
    in
    match Hashtbl.find_opt memo query with
    | Some e -> e
    | None ->
      let e =
        match Smoqe_rxpath.Parser.path_of_string query with
        | Error _ -> ""
        | Ok path ->
          encode
            (List.map
               (fun n -> m.Materialize.provenance.(n))
               (Smoqe_rxpath.Semantics.answer_list m.Materialize.tree path))
      in
      Hashtbl.replace memo query e;
      e
  in
  List.fold_left
    (fun failed e ->
      let wrong a =
        (not a.fragments_ok) || a.ids <> reference e.doc e.version a.query
      in
      if List.exists wrong e.answers then failed + 1 else failed)
    0
    (List.stable_sort
       (fun a b -> compare (a.doc, a.version) (b.doc, b.version))
       (List.rev t.entries))
