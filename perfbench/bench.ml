(* The repository benchmark: one closed-loop client, one process, one
   domain.  Usage:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the run times only the public Smoqe.Engine calls and
   prints the end-to-end metrics, their times scaled to a nominal host
   speed by probes taken during the run (see Host).  With --trace 1 it
   first runs the same loop untraced for half the time, then replays
   every op layer by layer inside spans (see Replay) for the other half,
   and prints the per-layer metrics derived from those spans.  Every op's
   answers are checked against the materialized-view oracle after the
   timed loop.  The last line of standard output is the JSON result. *)

module Parser = Smoqe_xml.Parser
module Error = Smoqe_robust.Error
module Update = Smoqe_update.Update
module Engine = Smoqe.Engine

let group = "members"
let now_ns = Spans.now_ns
let min_reads = 100

(* --- statistics -------------------------------------------------------- *)

let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median = quantile 0.5
let ratio num den = if den = 0. then 0. else num /. den

(* --- set-up ------------------------------------------------------------ *)

let set_up (d : Inputs.doc) =
  match Engine.of_string_robust ~dtd:d.Inputs.dtd d.Inputs.bytes with
  | Error e -> failwith ("set-up: " ^ Error.to_string e)
  | Ok e ->
    (match Engine.register_policy e ~group d.Inputs.policy with
    | Ok () -> ()
    | Error msg -> failwith ("set-up: " ^ msg));
    Engine.build_index e;
    e

(* Set every document up at least 5 times and for at least half a second;
   the median set-up time is steady where a single one is not.  Each
   set-up is scaled by the host probes taken before and after it. *)
let set_up_all (w : Inputs.t) =
  let times = ref [] and engines = ref [||] and total = ref 0 in
  let before = ref (Host.probe ()) in
  while List.length !times < 5 || (!total < 500_000_000 && List.length !times < 25) do
    let t0 = now_ns () in
    engines := Array.map set_up w.Inputs.docs;
    let dt = now_ns () - t0 in
    let after = Host.probe () in
    total := !total + dt;
    times := Host.scale ~before:!before ~after dt /. 1e9 :: !times;
    before := after
  done;
  (!engines, !times)

(* --- the closed loop --------------------------------------------------- *)

type state = {
  w : Inputs.t;
  engines : Engine.t array;
  visits : int array;  (** write targets of document 0 (stable ids) *)
  oracle : Oracle.t;
  next : unit -> Inputs.op;
  mutable version : int;  (** writes applied *)
  mutable attempted : int;
  mutable failed : int;  (** ops that returned Error *)
  mutable replay_mismatch : int;
}

type sample = {
  mutable ops : (int * bool) list;
      (** every op's latency in ns and whether it read, most recent first *)
  mutable marks : (int * int * int) list;
      (** host probes: (ops done, probe ns, top heap words), most recent
          first *)
  mutable reads_n : int;
  mutable busy_ns : int;
  mutable alloc_bytes : float;
  mutable n : int;
  mutable plans_dropped : int;
  mutable index_maintained : int;
}

let sample () =
  { ops = []; marks = []; reads_n = 0; busy_ns = 0;
    alloc_bytes = 0.; n = 0; plans_dropped = 0; index_maintained = 0 }

let ms ns = float_of_int ns /. 1e6

(* Latencies in ms of the sample's reads, or of its writes. *)
let latencies s ~read =
  List.filter_map (fun (dt, r) -> if r = read then Some (ms dt) else None) s.ops

(* Time one engine call: latency and bytes allocated. *)
let timed s ~read f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  let v = f () in
  let t1 = now_ns () in
  let a1 = Gc.allocated_bytes () in
  let dt = t1 - t0 in
  s.busy_ns <- s.busy_ns + dt;
  s.alloc_bytes <- s.alloc_bytes +. (a1 -. a0);
  s.n <- s.n + 1;
  s.ops <- (dt, read) :: s.ops;
  if read then s.reads_n <- s.reads_n + 1;
  v

(* One op.  With [trace], the op is replayed inside spans after the
   engine answered it. *)
let step st s ?trace ?replay () =
  st.attempted <- st.attempted + 1;
  let mode = st.w.Inputs.mode in
  match st.next () with
  | Inputs.Query { doc; text } ->
    (match
       timed s ~read:true (fun () ->
           Engine.query_robust st.engines.(doc) ~group ~mode text)
     with
    | Error _ -> st.failed <- st.failed + 1
    | Ok o ->
      Oracle.record st.oracle ~doc ~version:st.version [ Oracle.answer text o ];
      (match trace, replay with
      | Some rs, Some ctxs ->
        if not (Replay.query rs ctxs.(doc) text o) then
          st.replay_mismatch <- st.replay_mismatch + 1
      | _ -> ()))
  | Inputs.Batch texts ->
    let results, joint =
      timed s ~read:true (fun () ->
          Engine.run_many_robust st.engines.(0) ~group ~mode texts)
    in
    let answers =
      List.map2
        (fun text -> function
          | Ok o -> Some (Oracle.answer text o)
          | Error _ -> None)
        texts (Array.to_list results)
    in
    if List.mem None answers then st.failed <- st.failed + 1
    else begin
      Oracle.record st.oracle ~doc:0 ~version:st.version
        (List.filter_map Fun.id answers);
      match trace, replay with
      | Some rs, Some ctxs ->
        if not (Replay.batch rs ctxs.(0) texts results joint) then
          st.replay_mismatch <- st.replay_mismatch + 1
      | _ -> ()
    end
  | Inputs.Write { pick; visit } ->
    let target = st.visits.(pick mod Array.length st.visits) in
    let write () =
      timed s ~read:false (fun () ->
          Engine.update_robust st.engines.(0)
            (Update.Replace (Update.By_id target, visit)))
    in
    let r =
      match trace with
      | None -> write ()
      | Some rs ->
        Spans.op rs "op.write" (fun () ->
            Spans.span rs "update.write"
              ~counts:(function
                | Ok (u : Engine.update_report) ->
                  [ ("plans_dropped", u.Engine.up_plans_dropped);
                    ("index_maintained", Bool.to_int u.Engine.up_index_maintained) ]
                | Error _ -> [])
              write)
    in
    (match r with
    | Error _ -> st.failed <- st.failed + 1
    | Ok u ->
      s.plans_dropped <- s.plans_dropped + u.Engine.up_plans_dropped;
      if u.Engine.up_index_maintained then
        s.index_maintained <- s.index_maintained + 1;
      Oracle.record_write st.oracle ~target visit;
      st.version <- st.version + 1)

(* Run ops for [seconds] of wall time, and on until [min_reads] reads are
   in, so that at least ten lie beyond p90 (at most twice as long).  With
   [probes], probe the host before the first op, after the last and
   between ops about every second. *)
let loop ~seconds ?(probes = false) f s =
  let t0 = now_ns () in
  let limit = int_of_float (seconds *. 1e9) in
  let elapsed () = now_ns () - t0 in
  let last = ref 0 in
  let mark () =
    if probes then begin
      s.marks <- (s.n, Host.probe (), (Gc.quick_stat ()).Gc.top_heap_words) :: s.marks;
      last := elapsed ()
    end
  in
  mark ();
  while (elapsed () < limit || s.reads_n < min_reads) && elapsed () < 2 * limit do
    f ();
    if elapsed () - !last >= 1_000_000_000 then mark ()
  done;
  mark ()

(* --- per-layer metrics from spans ------------------------------------- *)

let layer_metrics ~spans ~plan_hits ~plan_misses ~(traced : sample)
    ~untraced_ops_per_s =
  let selfs = Spans.self_times spans in
  let by_op = Hashtbl.create 256 in
  List.iter
    (fun ((sp : Spans.span), self) ->
      Hashtbl.replace by_op sp.Spans.op
        ((sp, self) :: Option.value ~default:[] (Hashtbl.find_opt by_op sp.Spans.op)))
    selfs;
  let ops =
    Hashtbl.fold
      (fun _ members acc ->
        match List.find_opt (fun ((sp : Spans.span), _) -> sp.Spans.parent < 0) members with
        | Some (root, root_self) -> (root, root_self, members) :: acc
        | None -> acc)
      by_op []
  in
  let is_read (root : Spans.span) =
    root.Spans.name = "op.query" || root.Spans.name = "op.batch"
  in
  (* Every op: the self times of its spans add up to its duration. *)
  let inconsistent =
    List.length
      (List.filter
         (fun (root, _, members) ->
           List.fold_left (fun a (_, self) -> a + self) 0 members
           <> Spans.duration root)
         ops)
  in
  (* Per-op self time of a layer (summed over its spans in the op), over
     the ops where it ran. *)
  let per_op name =
    List.filter_map
      (fun (_, _, members) ->
        match List.filter (fun ((sp : Spans.span), _) -> sp.Spans.name = name) members with
        | [] -> None
        | xs -> Some (float_of_int (List.fold_left (fun a (_, s) -> a + s) 0 xs)))
      ops
  in
  let med_ms name = median (per_op name) /. 1e6 in
  let med_us name = median (per_op name) /. 1e3 in
  let named name = List.filter (fun ((sp : Spans.span), _) -> sp.Spans.name = name) selfs in
  let count key (sp : Spans.span) =
    float_of_int (Option.value ~default:0 (List.assoc_opt key sp.Spans.counts))
  in
  let sum_count names key =
    List.fold_left
      (fun a name -> List.fold_left (fun a (sp, _) -> a +. count key sp) a (named name))
      0. names
  in
  let sum_self name = List.fold_left (fun a (_, s) -> a +. float_of_int s) 0. (named name) in
  let mean_count name key =
    ratio (sum_count [ name ] key) (float_of_int (List.length (named name)))
  in
  let reads = List.filter (fun (root, _, _) -> is_read root) ops in
  let n_reads = float_of_int (List.length reads) in
  let evals = [ "hype.traverse"; "hype.stax" ] in
  let writes = float_of_int (traced.n - traced.reads_n) in
  let traced_busy =
    List.fold_left
      (fun a (root, _, _) ->
        if root.Spans.name = "op.setup" then a else a + Spans.duration root)
      0 ops
  in
  let traced_ops_per_s =
    ratio (float_of_int traced.n) (float_of_int traced_busy /. 1e9)
  in
  let m =
    [ ("xml.parse_ms", med_ms "xml.parse", "ms");
      ("xml.parse_mb_s",
       ratio (sum_count [ "xml.parse" ] "bytes" /. 1e6) (sum_self "xml.parse" /. 1e9),
       "MB/s");
      ("xml.validate_ms", med_ms "xml.validate", "ms");
      ("xml.lex_ms", med_ms "xml.lex", "ms");
      ("xml.serialize_ms", med_ms "xml.serialize", "ms");
      ("xml.answer_kb", ratio (sum_count [ "xml.serialize" ] "answer_bytes" /. 1024.) n_reads, "KB");
      ("security.derive_us", med_us "security.derive", "us");
      ("tax.build_ms", med_ms "tax.build", "ms");
      ("tax.pruned_ratio",
       ratio (sum_count [ "hype.traverse" ] "nodes_pruned_tax")
         (sum_count [ "hype.traverse" ] "nodes_entered"
          +. sum_count [ "hype.traverse" ] "nodes_pruned_tax"),
       "ratio");
      ("rxpath.parse_us", med_us "rxpath.parse", "us");
      ("rewrite.rewrite_us", med_us "rewrite.rewrite", "us");
      ("rewrite.mfa_states", mean_count "rewrite.rewrite" "mfa_states", "count");
      ("automata.optimize_us", med_us "automata.optimize", "us");
      ("automata.emptiness_us", med_us "automata.emptiness", "us");
      ("automata.specialize_us", med_us "automata.specialize", "us");
      ("automata.specializations_per_op",
       ratio (float_of_int (List.length (named "automata.specialize"))) n_reads, "1/op");
      ("automata.merge_us", med_us "automata.merge", "us");
      ("automata.shared_states", mean_count "automata.merge" "shared_states", "count");
      ("plan.hit_ratio",
       ratio (float_of_int plan_hits) (float_of_int (plan_hits + plan_misses)), "ratio");
      ("plan.drops_per_write", ratio (float_of_int traced.plans_dropped) writes, "count");
      ("hype.traverse_ms", med_ms "hype.traverse", "ms");
      ("hype.ns_per_node",
       ratio (sum_self "hype.traverse") (sum_count [ "hype.traverse" ] "nodes_entered"), "ns");
      ("hype.words_per_node",
       ratio
         (List.fold_left (fun a ((sp : Spans.span), _) -> a +. sp.Spans.minor_words) 0.
            (named "hype.traverse"))
         (sum_count [ "hype.traverse" ] "nodes_entered"),
       "words");
      ("hype.stax_ms", med_ms "hype.stax", "ms");
      ("hype.memo_hit_ratio",
       ratio (sum_count evals "memo_hits")
         (sum_count evals "memo_hits" +. sum_count evals "memo_misses"),
       "ratio");
      ("hype.skip_ratio",
       ratio
         (sum_count evals "nodes_skipped_dead" +. sum_count evals "nodes_pruned_tax")
         (sum_count evals "nodes"),
       "ratio");
      ("hype.cans_useful_ratio",
       ratio (sum_count evals "answers") (sum_count evals "candidates"), "ratio");
      ("update.write_ms", med_ms "update.write", "ms");
      ("update.index_maintained_ratio",
       ratio (float_of_int traced.index_maintained) writes, "ratio");
      ("core.unattributed_us",
       median (List.map (fun (_, self, _) -> float_of_int self) reads) /. 1e3, "us");
      ("trace.overhead_ratio", ratio traced_ops_per_s untraced_ops_per_s, "ratio") ]
  in
  (m, inconsistent)

(* --- output ------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- main -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {" ^ String.concat "|" Inputs.names
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some w, Some seed, Some seconds, Some ("0" | "1" as t)
    when List.mem w Inputs.names && seconds > 0. ->
    (w, seed, seconds, t = "1")
  | _ -> usage ()

let main () =
  let name, seed, seconds, traced = args () in
  let w = Inputs.make name ~seed in
  let docs_d, queries_d, writes_d = Inputs.digest w in
  Printf.printf "inputs %s seed %d: docs=%s queries=%s writes=%s\n%!" name seed
    docs_d queries_d writes_d;
  let visits = Inputs.visits (Parser.tree_of_string w.Inputs.docs.(0).Inputs.bytes) in
  let engines, setup_before = set_up_all w in
  let st =
    { w; engines; visits; oracle = Oracle.create (); next = w.Inputs.stream ();
      version = 0; attempted = 0; failed = 0; replay_mismatch = 0 }
  in
  let warm = sample () in
  for _ = 1 to 10 do step st warm () done;
  let untraced = sample () in
  loop ~seconds:(if traced then seconds /. 2. else seconds) ~probes:true
    (step st untraced) untraced;
  let ops_per_s = ratio (float_of_int untraced.n) (float_of_int untraced.busy_ns /. 1e9) in
  (* End-to-end timings, scaled to the nominal host (see Host). *)
  let ops = List.rev untraced.ops in
  let marks = List.rev untraced.marks in
  let scaled = Host.scale_ops (List.map (fun (n, p, _) -> (n, p)) marks) (List.map fst ops) in
  let scaled_reads =
    List.concat (List.map2 (fun t (_, read) -> if read then [ t /. 1e6 ] else []) scaled ops)
  in
  let probe_ms = median (List.map (fun (_, p, _) -> float_of_int p /. 1e6) marks) in
  (* The top heap at the first probe by which the scaled engine time
     reached a third of the loop's length (or at the last): the engine's
     heap grows with the ops it has served, and a fast host serves more
     of them in the same wall time. *)
  let top_heap =
    let target = seconds /. 3. *. 1e9 in
    let rec go i acc scaled = function
      | [] -> (Gc.quick_stat ()).Gc.top_heap_words
      | [ (_, _, h) ] -> h
      | (n, _, h) :: rest as marks ->
        if i < n then
          match scaled with
          | t :: scaled -> go (i + 1) (acc +. t) scaled marks
          | [] -> h
        else if acc >= target then h
        else go i acc scaled rest
    in
    go 0 0. scaled marks
  in
  let layer =
    if not traced then None
    else begin
      let rs = Spans.create () in
      Array.iter
        (fun (d : Inputs.doc) ->
          for _ = 1 to 5 do
            Replay.setup rs ~dtd:d.Inputs.dtd ~policy:d.Inputs.policy d.Inputs.bytes
          done)
        w.Inputs.docs;
      let replay =
        Array.mapi
          (fun i (d : Inputs.doc) ->
            Replay.ctx ~engine:engines.(i) ~group ~dtd:d.Inputs.dtd
              ~bytes:d.Inputs.bytes ~mode:w.Inputs.mode)
          w.Inputs.docs
      in
      let counters () =
        Array.fold_left
          (fun (h, m) e ->
            let c = Engine.plan_cache_counters e in
            (h + List.assoc "hits" c, m + List.assoc "misses" c))
          (0, 0) engines
      in
      let h0, m0 = counters () in
      let s = sample () in
      loop ~seconds:(seconds /. 2.) (step st s ~trace:rs ~replay) s;
      let h1, m1 = counters () in
      let spans = Spans.spans rs in
      (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
      Spans.write (Printf.sprintf ".bench_out/spans-%s-%d.jsonl" name seed) spans;
      let metrics, inconsistent =
        layer_metrics ~spans ~plan_hits:(h1 - h0) ~plan_misses:(m1 - m0)
          ~traced:s ~untraced_ops_per_s:ops_per_s
      in
      Some (metrics @ [ ("host.probe_ms", probe_ms, "ms") ], inconsistent)
    end
  in
  (* More set-ups after the loop: the median then spans the whole run. *)
  let setup_times =
    if traced then setup_before else setup_before @ snd (set_up_all w)
  in
  let wrong = Oracle.failures st.oracle w in
  let failed = st.failed + wrong in
  Printf.printf
    "samples: %d set-ups, %d reads, %d writes (write p50 %.3f ms); as \
     measured: %.2f ops/s, read p50 %.3f ms; host probe %.3f ms (nominal \
     %.3f ms); ops attempted %d, failed %d (errors %d, oracle mismatches \
     %d), replay mismatches %d\n"
    (List.length setup_times) untraced.reads_n (untraced.n - untraced.reads_n)
    (median (latencies untraced ~read:false)) ops_per_s
    (median (latencies untraced ~read:true))
    probe_ms (float_of_int Host.nominal_ns /. 1e6) st.attempted failed st.failed wrong
    st.replay_mismatch;
  match layer with
  | None ->
    print_result ~correct:(failed = 0) ~attempted:st.attempted ~failed
      [ ("setup_s", median setup_times, "s");
        ("ops_per_s",
         ratio (float_of_int untraced.n) (List.fold_left ( +. ) 0. scaled /. 1e9), "1/s");
        ("p50_ms", median scaled_reads, "ms");
        ("p90_ms", quantile 0.9 scaled_reads, "ms");
        ("alloc_kb_per_op",
         ratio (untraced.alloc_bytes /. 1024.) (float_of_int untraced.n), "KB");
        ("peak_heap_mb",
         float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6, "MB") ]
  | Some (metrics, inconsistent) ->
    if inconsistent > 0 then
      Printf.printf "trace: %d ops whose span self times do not add up\n" inconsistent;
    print_result
      ~correct:(failed = 0 && inconsistent = 0 && st.replay_mismatch = 0)
      ~attempted:st.attempted ~failed metrics

let () =
  match main () with
  | () -> exit 0
  | exception e ->
    prerr_endline ("bench: " ^ Printexc.to_string e);
    exit 2
