module Pull = Smoqe_xml.Pull
module Serializer = Smoqe_xml.Serializer
module Budget = Smoqe_robust.Budget
module Failpoint = Smoqe_robust.Failpoint

module Shared = Smoqe_automata.Shared

type result = {
  answers : int list;
  captured : (int * string) list;
  stats : Stats.t;
  cans_size : int;
  n_nodes : int;
  budget_hit : (string * string) option;
}

type many_result = {
  by_query : int list array;
  by_query_captured : (int * string) list array;
  m_stats : Stats.t;
  m_cans_size : int;
  m_n_nodes : int;
  m_budget_hit : (string * string) option;
}

(* An in-flight capture of a candidate subtree: everything scanned while
   it is open is appended (including regions the engine skipped — they
   are part of the fragment even if no run is alive there). *)
type capture = {
  cap_node : int;
  buf : Buffer.t;
  mutable open_elements : int;
}

(* [run_core] is written against three per-event handlers rather than an
   event stream: the cursor driver below feeds the engine interned names
   and borrowed text spans, so on the fast path (no capture in
   progress) an event costs no allocation at all.  Attribute lists and
   text copies are behind thunks, forced only while a capture is actually
   recording. *)
let run_core ~capture ?budget ?trace ?use_tables ?memo_cap ?owners ?n_queries
    mfa drive =
  let use_tables =
    match use_tables with
    | Some b -> b
    | None -> Smoqe_automata.Tables.enabled_default ()
  in
  (* Streaming has no tag universe up front: a dynamic table pre-interns
     the automaton's element names and grows as unseen stream tags arrive.
     Dynamic tables are mutable, so each run builds its own. *)
  let tables =
    if use_tables then
      Some (Smoqe_automata.Tables.dynamic mfa.Smoqe_automata.Mfa.nfa)
    else None
  in
  let engine = Engine.create ?trace ?tables ?memo_cap ?owners ?n_queries mfa in
  let stats = Engine.stats engine in
  (match tables with
  | Some tb ->
    stats.Stats.table_spec_us <- Smoqe_automata.Tables.spec_us tb
  | None -> ());
  let ticks = ref 0 in
  let checkpoint =
    (* Same amortization as Eval_dom: one local increment per event, the
       budget settles every 32 events, the Cans size is audited every 256,
       and a final settlement covers short streams. *)
    match budget with
    | None -> fun () -> Failpoint.trigger "hype.step"
    | Some b ->
      fun () ->
        Failpoint.trigger "hype.step";
        let k = !ticks + 1 in
        ticks := k;
        if k land 31 = 0 then begin
          Budget.tick_nodes b 32;
          if k land 255 = 0 then Budget.check_cans b (Engine.cans_size engine)
        end
  in
  let final_check () =
    match budget with
    | None -> ()
    | Some b ->
      (match !ticks land 31 with
      | 0 -> ()
      | rest -> Budget.tick_nodes b rest);
      Budget.check_cans b (Engine.cans_size engine);
      Budget.check_deadline b
  in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Per open element: was the engine entered for it ('\001'), or are
     its children skipped ('\000')?  Children of a Dead node are skipped
     without engine calls, but still consume pre-order ids so that answers
     align with DOM ids.  A byte stack, grown on demand. *)
  let stack = ref (Bytes.create 64) and depth = ref 0 in
  let push_level alive =
    if !depth = Bytes.length !stack then
      stack := Bytes.extend !stack 0 (Bytes.length !stack);
    Bytes.unsafe_set !stack !depth (if alive then '\001' else '\000');
    incr depth
  in
  let mark id m = match trace with None -> () | Some tr -> Trace.mark tr id m in
  let top_alive () =
    !depth = 0 || Bytes.unsafe_get !stack (!depth - 1) = '\001'
  in
  (* capturing *)
  let open_captures = ref [] in
  let finished_captures : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let cap_start ~candidate id tag attrs =
    List.iter
      (fun c ->
        Buffer.add_char c.buf '<';
        Buffer.add_string c.buf tag;
        List.iter
          (fun (k, v) ->
            Buffer.add_char c.buf ' ';
            Buffer.add_string c.buf k;
            Buffer.add_string c.buf "=\"";
            Buffer.add_string c.buf (Serializer.escape_attr v);
            Buffer.add_char c.buf '"')
          attrs;
        Buffer.add_char c.buf '>';
        c.open_elements <- c.open_elements + 1)
      !open_captures;
    if capture && candidate then
      open_captures :=
        (let c = { cap_node = id; buf = Buffer.create 64; open_elements = 1 } in
         Buffer.add_char c.buf '<';
         Buffer.add_string c.buf tag;
         List.iter
           (fun (k, v) ->
             Buffer.add_char c.buf ' ';
             Buffer.add_string c.buf k;
             Buffer.add_string c.buf "=\"";
             Buffer.add_string c.buf (Serializer.escape_attr v);
             Buffer.add_char c.buf '"')
           attrs;
         Buffer.add_char c.buf '>';
         c)
        :: !open_captures
  in
  let cap_end tag =
    List.iter
      (fun c ->
        Buffer.add_string c.buf "</";
        Buffer.add_string c.buf tag;
        Buffer.add_char c.buf '>';
        c.open_elements <- c.open_elements - 1)
      !open_captures;
    open_captures :=
      List.filter
        (fun c ->
          if c.open_elements = 0 then begin
            Hashtbl.replace finished_captures c.cap_node (Buffer.contents c.buf);
            false
          end
          else true)
        !open_captures
  in
  let cap_text id content is_candidate =
    List.iter
      (fun c -> Buffer.add_string c.buf (Serializer.escape_text content))
      !open_captures;
    if capture && is_candidate then
      Hashtbl.replace finished_captures id (Serializer.escape_text content)
  in
  (* Attribute/text thunks are forced only when some capture buffer will
     consume the result — the guards mirror the no-op conditions of
     [cap_start]/[cap_text], so behaviour is unchanged. *)
  let on_start name attrs_fn =
    checkpoint ();
    let id = fresh_id () in
    if top_alive () then begin
      (match Engine.enter_named engine ~id name with
      | Engine.Alive -> push_level true
      | Engine.Dead ->
        mark id Trace.Skipped_dead;
        push_level false);
      let candidate = Engine.entered_candidate engine in
      if !open_captures <> [] || (capture && candidate) then
        cap_start ~candidate id name (attrs_fn ())
    end
    else begin
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead;
      push_level false;
      if !open_captures <> [] then
        cap_start ~candidate:false (-1) name (attrs_fn ())
    end
  in
  let on_end name =
    checkpoint ();
    if !depth = 0 then raise (Engine.Driver_error "unbalanced end event");
    if top_alive () then Engine.leave engine;
    decr depth;
    if !open_captures <> [] then cap_end name
  in
  let on_text backing off len content_fn =
    checkpoint ();
    let id = fresh_id () in
    if top_alive () then begin
      match Engine.enter_text engine ~id backing off len with
      | Engine.Alive ->
        let candidate = Engine.entered_candidate engine in
        if !open_captures <> [] || (capture && candidate) then
          cap_text id (content_fn ()) candidate;
        Engine.leave engine
      | Engine.Dead ->
        if !open_captures <> [] then cap_text id (content_fn ()) false
    end
    else begin
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead;
      if !open_captures <> [] then cap_text id (content_fn ()) false
    end
  in
  let budget_hit = ref None in
  (try
     drive ~on_start ~on_end ~on_text;
     final_check ()
   with Budget.Exceeded { what; limit } -> budget_hit := Some (what, limit));
  (engine, stats, finished_captures, !next_id, !budget_hit)

(* Zero-copy driver: names arrive interned from the cursor, text as a
   borrowed span consumed inside [on_text] (enter → capture → leave)
   before the next [cursor_next] invalidates it. *)
let drive_cursor pull ~on_start ~on_end ~on_text =
  let attrs () = Pull.cur_attrs pull and text () = Pull.cur_text pull in
  let rec loop () =
    match Pull.cursor_next pull with
    | Pull.Cursor_eof -> ()
    | Pull.Cursor_start ->
      on_start (Pull.cur_name pull) attrs;
      loop ()
    | Pull.Cursor_end ->
      on_end (Pull.cur_name pull);
      loop ()
    | Pull.Cursor_text ->
      on_text (Pull.cur_text_backing pull) (Pull.cur_text_start pull)
        (Pull.cur_text_length pull) text;
      loop ()
  in
  loop ()

let drive_events next ~on_start ~on_end ~on_text =
  let rec loop () =
    match next () with
    | None -> ()
    | Some ev ->
      (match ev with
      | Pull.Start_element (name, attrs) -> on_start name (fun () -> attrs)
      | Pull.End_element name -> on_end name
      | Pull.Text content ->
        on_text content 0 (String.length content) (fun () -> content));
      loop ()
  in
  loop ()

(* Serialized fragments for one answer list, from the per-node capture
   store (node ids are query-agnostic, so a batch shares the store). *)
let captures_for finished_captures answers =
  List.filter_map
    (fun n ->
      Option.map (fun s -> (n, s)) (Hashtbl.find_opt finished_captures n))
    answers

let run_generic ?(capture = false) ?budget ?trace ?use_tables ?memo_cap mfa
    drive =
  let engine, stats, finished_captures, n_nodes, budget_hit =
    run_core ~capture ?budget ?trace ?use_tables ?memo_cap mfa drive
  in
  let answers =
    match budget_hit with None -> Engine.finish engine | Some _ -> []
  in
  Stats.note_tables stats;
  let captured =
    if not capture then [] else captures_for finished_captures answers
  in
  {
    answers;
    captured;
    stats;
    cans_size = Engine.cans_size engine;
    n_nodes;
    budget_hit;
  }

let run_many_generic ?(capture = false) ?budget ?trace ?use_tables ?memo_cap
    (sh : Shared.t) drive =
  let engine, stats, finished_captures, n_nodes, budget_hit =
    run_core ~capture ?budget ?trace ?use_tables ?memo_cap
      ~owners:sh.Shared.owners ~n_queries:sh.Shared.n_queries sh.Shared.mfa
      drive
  in
  stats.Stats.batch_queries <- sh.Shared.n_queries;
  stats.Stats.shared_states <- sh.Shared.merged_states;
  stats.Stats.shared_saved <- Shared.saved_states sh;
  stats.Stats.shared_prefix_hits <- sh.Shared.prefix_hits;
  stats.Stats.accept_width <- sh.Shared.accept_width;
  let by_query =
    match budget_hit with
    | None -> Engine.finish_many engine
    | Some _ -> Array.make sh.Shared.n_queries []
  in
  Stats.note_tables stats;
  let by_query_captured =
    if not capture then Array.make sh.Shared.n_queries []
    else Array.map (captures_for finished_captures) by_query
  in
  {
    by_query;
    by_query_captured;
    m_stats = stats;
    m_cans_size = Engine.cans_size engine;
    m_n_nodes = n_nodes;
    m_budget_hit = budget_hit;
  }

let run ?capture ?budget ?trace ?use_tables ?memo_cap mfa pull =
  run_generic ?capture ?budget ?trace ?use_tables ?memo_cap mfa
    (drive_cursor pull)

let run_many ?capture ?budget ?trace ?use_tables ?memo_cap sh pull =
  run_many_generic ?capture ?budget ?trace ?use_tables ?memo_cap sh
    (drive_cursor pull)

let next_of_list events =
  let remaining = ref events in
  fun () ->
    match !remaining with
    | [] -> None
    | ev :: rest ->
      remaining := rest;
      Some ev

let run_many_events ?capture ?budget ?trace ?use_tables ?memo_cap sh events =
  run_many_generic ?capture ?budget ?trace ?use_tables ?memo_cap sh
    (drive_events (next_of_list events))

let run_events ?capture ?budget ?trace ?use_tables ?memo_cap mfa events =
  run_generic ?capture ?budget ?trace ?use_tables ?memo_cap mfa
    (drive_events (next_of_list events))

let eval_string ?capture ?trace path input =
  let mfa = Smoqe_automata.Compile.compile path in
  run ?capture ?trace mfa (Pull.of_string input)
