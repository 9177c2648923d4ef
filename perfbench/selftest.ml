(* Checks of the benchmark's own machinery: the self-time reducer, the
   input digests and the answer oracle.  Run by `dune runtest`. *)

module Tree = Smoqe_xml.Tree
module Engine = Smoqe.Engine
module Hospital = Smoqe_workload.Hospital

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let span id parent start_ns end_ns =
  { Spans.id; parent; op = 0; name = string_of_int id; start_ns; end_ns;
    minor_words = 0.; counts = [] }

(* A root [0, 100] with overlapping children [10, 40] and [30, 60], a child
   [90, 130] running past the root's end, and a grandchild [15, 20]. *)
let test_self_times () =
  let spans =
    [ span 0 (-1) 0 100; span 1 0 10 40; span 2 0 30 60; span 3 0 90 130;
      span 4 1 15 20 ]
  in
  let self = Spans.self_times spans in
  let of_id id = List.assoc id (List.map (fun (s, t) -> (s.Spans.id, t)) self) in
  check "self time: root minus the union of overlapping children" (of_id 0 = 40);
  check "self time: child minus its grandchild" (of_id 1 = 25);
  check "self time: leaves keep their duration" (of_id 2 = 30 && of_id 3 = 40 && of_id 4 = 5);
  check "covered: disjoint, nested and clipped intervals"
    (Spans.covered ~lo:0 ~hi:10 [ (2, 4); (3, 5); (8, 20); (-5, 1) ] = 6)

let test_recorder () =
  let r = Spans.create () in
  let v =
    Spans.op r "op" (fun () ->
        Spans.span r "a" ~counts:(fun n -> [ ("n", n) ]) (fun () -> 41) + 1)
  in
  match Spans.spans r with
  | [ a; op ] ->
    check "recorder: nesting, op ids and counts"
      (v = 42 && a.Spans.parent = op.Spans.id && op.Spans.parent = -1
       && a.Spans.op = op.Spans.op && a.Spans.counts = [ ("n", 41) ]
       && a.Spans.start_ns >= op.Spans.start_ns && a.Spans.end_ns <= op.Spans.end_ns)
  | _ -> check "recorder: nesting, op ids and counts" false

(* Four ops of 10 ns: the first two between probes of 2 and 6 ms, the
   last two between probes of 6 and 10 ms. *)
let test_host () =
  let ms = 1_000_000 and nominal = float_of_int Host.nominal_ns in
  let scaled = Host.scale_ops [ (0, 2 * ms); (2, 6 * ms); (4, 10 * ms) ] [ 10; 10; 10; 10 ] in
  let expect = [ 10. *. nominal /. 4e6; 10. *. nominal /. 4e6; 10. *. nominal /. 8e6; 10. *. nominal /. 8e6 ] in
  check "host: each op scaled by the probes around its block"
    (List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) scaled expect);
  check "host: a probe at the nominal time leaves times as measured"
    (Host.scale ~before:Host.nominal_ns ~after:Host.nominal_ns 1234 = 1234.)

let test_digests () =
  List.iter
    (fun name ->
      let d seed = Inputs.digest ~n_ops:200 (Inputs.make name ~seed) in
      check (name ^ ": same seed, same inputs") (d 1 = d 1);
      check (name ^ ": another seed, other inputs") (d 1 <> d 2))
    Inputs.names

(* A small hospital served by the engine; the oracle must pass its true
   answers and catch a corrupted answer list or a missing fragment. *)
let test_oracle () =
  let doc =
    { Inputs.dtd = Hospital.dtd; policy = Hospital.policy;
      bytes =
        Smoqe_xml.Serializer.to_string
          (Hospital.generate ~seed:3 ~n_patients:40 ~recursion_depth:2 ()) }
  in
  let w =
    { Inputs.mode = Engine.Dom; docs = [| doc |];
      stream = (fun () () -> assert false) }
  in
  let engine =
    match Engine.of_string_robust ~dtd:doc.Inputs.dtd doc.Inputs.bytes with
    | Ok e -> e
    | Error _ -> assert false
  in
  (match Engine.register_policy engine ~group:"g" Hospital.policy with
  | Ok () -> ()
  | Error _ -> assert false);
  let outcome q =
    match Engine.query_robust engine ~group:"g" q with
    | Ok o -> o
    | Error _ -> assert false
  in
  let verdict f =
    let o = Oracle.create () in
    List.iter (fun (_, q) -> f o q (outcome q)) Smoqe_workload.Queries.view_suite;
    Oracle.failures o w
  in
  let true_answers o q out = Oracle.record o ~doc:0 ~version:0 [ Oracle.answer q out ] in
  check "oracle: the engine's answers pass" (verdict true_answers = 0);
  let corrupt o q (out : Engine.outcome) =
    let out =
      if q = "//medication" then
        { out with Engine.answers = List.tl out.Engine.answers;
                   answer_xml = List.tl out.Engine.answer_xml }
      else out
    in
    true_answers o q out
  in
  check "oracle: a dropped answer is caught" (verdict corrupt = 1);
  let no_fragment o q (out : Engine.outcome) =
    let out =
      if q = "//medication" then { out with Engine.answer_xml = List.tl out.Engine.answer_xml }
      else out
    in
    true_answers o q out
  in
  check "oracle: a missing fragment is caught" (verdict no_fragment = 1);
  (* After a write, answers must match the written version, not the old:
     turn the visit of the first visible medication into a test. *)
  let tree = Smoqe_xml.Parser.tree_of_string doc.Inputs.bytes in
  let visit =
    Tree.E ("visit", [],
            [ Tree.E ("treatment", [], [ Tree.E ("test", [], [ Tree.T "t1" ]) ]);
              Tree.E ("date", [], [ Tree.T "2007-01-01" ]) ])
  in
  let before = outcome "//medication" in
  let parent n = Option.get (Tree.parent tree n) in
  let target = parent (parent (List.hd before.Engine.answers)) in
  (match
     Engine.update_robust engine
       (Smoqe_update.Update.Replace (Smoqe_update.Update.By_id target, visit))
   with
  | Ok _ -> ()
  | Error _ -> assert false);
  let after = outcome "//medication" in
  let o = Oracle.create () in
  Oracle.record_write o ~target visit;
  Oracle.record o ~doc:0 ~version:1 [ Oracle.answer "//medication" after ];
  check "oracle: answers after a write pass on the written version"
    (Oracle.failures o w = 0);
  if before.Engine.answers <> after.Engine.answers then begin
    let o = Oracle.create () in
    Oracle.record_write o ~target visit;
    Oracle.record o ~doc:0 ~version:1 [ Oracle.answer "//medication" before ];
    check "oracle: stale answers after a write are caught" (Oracle.failures o w = 1)
  end
  else check "oracle: the write changed the answers" false

let () =
  test_self_times ();
  test_recorder ();
  test_host ();
  test_digests ();
  test_oracle ();
  if !failures > 0 then begin
    Printf.printf "%d benchmark self-test(s) failed\n" !failures;
    exit 1
  end
