(* Seeded inputs of the four workloads.

   Everything a run feeds the engine is generated here from the workload
   seed: document bytes, the query texts and the write schedule.  The
   engine receives only those bytes and texts (and the schema and policy
   they were generated for). *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Serializer = Smoqe_xml.Serializer
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen

type doc = { dtd : Dtd.t; policy : Policy.t; bytes : string }

type op =
  | Query of { doc : int; text : string }  (** one view query on [docs.(doc)] *)
  | Batch of string list  (** standing subscriptions, one shared pass *)
  | Write of { pick : int; visit : Tree.source }
      (** replace visit number [pick mod n_visits] with [visit] *)

type t = {
  mode : Smoqe.Engine.mode;
  docs : doc array;
  stream : unit -> unit -> op;
      (** a fresh op stream; every stream of one workload value yields
          the same ops *)
}

let names = [ "hospital_dom"; "hospital_stax"; "adhoc_small"; "pubsub_update" ]

let hospital_doc ~seed ~n_patients =
  let tree = Hospital.generate ~seed ~n_patients ~recursion_depth:2 () in
  { dtd = Hospital.dtd; policy = Hospital.policy;
    bytes = Serializer.to_string tree }

let view_suite = List.map snd Queries.view_suite

let round_robin queries () =
  let queries = Array.of_list queries in
  let i = ref (-1) in
  fun () ->
    incr i;
    Query { doc = 0; text = queries.(!i mod Array.length queries) }

(* adhoc_small: a fixed pool of small records — recursive 12-type schemas,
   the first [n_schemas] (in schema-seed order) whose view exposes at least
   four types, so that size-6 queries have a vocabulary to draw from, each
   with one document of about 224 nodes (97 to 671).  The run seed draws the query stream: the
   records stay fixed, as a deployment's would, so that a run's cost does
   not swing with which records a seed happened to draw. *)
let n_schemas = 8

let schema_pool =
  lazy
    (let rec go s acc =
       if List.length acc = n_schemas then List.rev acc
       else
         let dtd = Random_dtd.generate ~seed:s ~n_types:12 ~recursion:true () in
         let policy = Random_dtd.random_policy ~seed:(s + 1000) dtd in
         let visible = Derive.visible_types (Derive.derive policy) in
         go (s + 1)
           (if List.length visible >= 4 then (dtd, policy, visible) :: acc
            else acc)
     in
     Array.of_list (go 1 []))

let adhoc ~seed =
  let pool = Lazy.force schema_pool in
  let docs =
    Array.mapi
      (fun i (dtd, policy, _) ->
        let tree =
          Docgen.generate_sized ~seed:(2000 + i) ~max_depth:4 ~target_nodes:224 dtd
        in
        { dtd; policy; bytes = Serializer.to_string tree })
      pool
  in
  (* Distinct queries, each issued once, round-robin over the schemas. *)
  let stream () =
    let rng = Random.State.make [| seed; 0xad |] in
    let seen = Array.init (Array.length pool) (fun _ -> Hashtbl.create 1024) in
    let i = ref (-1) in
    fun () ->
      incr i;
      let d = !i mod Array.length pool in
      let _, _, tags = pool.(d) in
      let rec fresh tries =
        if tries = 0 then failwith "adhoc_small: query space exhausted";
        let q =
          Random_dtd.random_query ~seed:(Random.State.bits rng) ~size:6 ~tags ()
        in
        let text = Smoqe_rxpath.Pretty.path_to_string q in
        if Hashtbl.mem seen.(d) text then fresh (tries - 1)
        else begin
          Hashtbl.add seen.(d) text ();
          text
        end
      in
      Query { doc = d; text = fresh 10_000 }
  in
  { mode = Smoqe.Engine.Dom; docs; stream }

(* pubsub_update: 13 standing subscriptions answered in one shared pass;
   every 5th op is an administrative write replacing a random visit. *)
let subscriptions =
  view_suite
  @ List.concat_map
      (fun m ->
        [ Printf.sprintf "patient[treatment/medication = '%s']" m;
          Printf.sprintf "//treatment[medication = '%s']" m ])
      Hospital.medications

let write_every = 5

let random_visit rng =
  let meds = Array.of_list Hospital.medications in
  let treatment =
    if Random.State.int rng 100 < 60 then
      Tree.E ("medication", [],
              [ Tree.T meds.(Random.State.int rng (Array.length meds)) ])
    else Tree.E ("test", [], [ Tree.T (Printf.sprintf "t%d" (Random.State.int rng 100)) ])
  in
  Tree.E
    ( "visit", [],
      [ Tree.E ("treatment", [], [ treatment ]);
        Tree.E ("date", [],
                [ Tree.T (Printf.sprintf "2007-%02d-%02d"
                            (1 + Random.State.int rng 12)
                            (1 + Random.State.int rng 28)) ]) ] )

let pubsub ~seed =
  let stream () =
    let rng = Random.State.make [| seed; 0x9b |] in
    let i = ref 0 in
    fun () ->
      incr i;
      if !i mod write_every = 0 then
        let pick = Random.State.bits rng in
        Write { pick; visit = random_visit rng }
      else Batch subscriptions
  in
  { mode = Smoqe.Engine.Dom;
    docs = [| hospital_doc ~seed ~n_patients:200 |]; stream }

let make name ~seed =
  match name with
  | "hospital_dom" | "hospital_stax" ->
    { mode = (if name = "hospital_dom" then Smoqe.Engine.Dom else Smoqe.Engine.Stax);
      docs = [| hospital_doc ~seed ~n_patients:2000 |];
      stream = round_robin view_suite }
  | "adhoc_small" -> adhoc ~seed
  | "pubsub_update" -> pubsub ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Visits of a hospital document, in document order: the write targets. *)
let visits tree =
  Tree.fold_preorder tree ~init:[] ~f:(fun acc n ->
      if Tree.is_element tree n && Tree.name tree n = "visit" then n :: acc
      else acc)
  |> List.rev |> Array.of_list

(* Digests of the document bytes, of the query texts and of the write
   schedule over the first [n_ops] ops of a fresh stream. *)
let digest ?(n_ops = 1000) w =
  let docs = Buffer.create 1024 and queries = Buffer.create 1024
  and writes = Buffer.create 1024 in
  Array.iter
    (fun d ->
      Buffer.add_string docs (Digest.string d.bytes);
      Buffer.add_string docs (Policy.to_string d.policy))
    w.docs;
  let next = w.stream () in
  for _ = 1 to n_ops do
    match next () with
    | Query { doc; text } -> Printf.bprintf queries "%d:%s\n" doc text
    | Batch texts -> Printf.bprintf queries "batch:%s\n" (String.concat "|" texts)
    | Write { pick; visit } ->
      Printf.bprintf writes "%d:%s\n" pick
        (Serializer.to_string ~indent:false (Tree.of_source visit))
  done;
  let hex b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (hex docs, hex queries, hex writes)
