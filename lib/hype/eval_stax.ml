module Pull = Smoqe_xml.Pull
module Serializer = Smoqe_xml.Serializer
module Budget = Smoqe_robust.Budget
module Failpoint = Smoqe_robust.Failpoint

module Shared = Smoqe_automata.Shared
module Tables = Smoqe_automata.Tables

let unseen = min_int

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

(* [run_core] is written against three per-event handlers rather than an
   event stream: the cursor driver below feeds the engine interned names
   and borrowed text spans, so on the fast path (no capture in progress)
   an event costs no allocation at all.  [on_start] receives an attribute
   emitter that writes the element's attributes, escaped, into a buffer;
   it runs only while a capture is recording.

   Capture.  Everything scanned while a candidate subtree is open is part
   of its fragment, including regions the engine skipped.  Open captures
   nest like the elements they record, so they form a stack, and one
   buffer serves them all: a capture owns the bytes from its start offset
   to the buffer's end, and a nested candidate's fragment is a region of
   its ancestor's.  Each scanned byte is escaped straight from the
   driver's spans and written once, however many captures are open.  A
   capture's fragment is copied out when its element closes; the buffer
   is cleared when the last open capture closes. *)
let run_core ~capture ?budget ?trace ?use_tables ?memo_cap ?owners ?n_queries
    mfa drive =
  let use_tables =
    match use_tables with
    | Some b -> b
    | None -> Tables.enabled_default ()
  in
  (* Streaming has no tag universe up front: a dynamic table pre-interns
     the automaton's element names and grows as unseen stream tags arrive.
     Dynamic tables are mutable, so each run builds its own. *)
  let tables =
    if use_tables then
      Some (Tables.dynamic mfa.Smoqe_automata.Mfa.nfa)
    else None
  in
  let engine = Engine.create ?trace ?tables ?memo_cap ?owners ?n_queries mfa in
  let stats = Engine.stats engine in
  (match tables with
  | Some tb ->
    stats.Stats.table_spec_us <- Tables.spec_us tb
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
  (* capturing: the shared buffer, and the open captures as a stack of
     (node id, start offset in [cap_buf], element depth) triples *)
  let cap_buf = Buffer.create 1024 in
  let caps = ref (Array.make 24 0) and n_open = ref 0 in
  (* Buffer length just after the latest start tag, [-1] once a text
     node follows it (even an empty one): an end tag that finds the
     buffer still there closes a childless element, written [<a/>] as the
     DOM serializer writes it. *)
  let last_start_tag = ref 0 in
  let finished_captures : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let store id start =
    Hashtbl.replace finished_captures id
      (Buffer.sub cap_buf start (Buffer.length cap_buf - start))
  in
  let cap_start ~candidate id tag emit_attrs =
    let start = Buffer.length cap_buf in
    Buffer.add_char cap_buf '<';
    Buffer.add_string cap_buf tag;
    emit_attrs cap_buf;
    Buffer.add_char cap_buf '>';
    last_start_tag := Buffer.length cap_buf;
    if capture && candidate then begin
      let k = 3 * !n_open in
      if k = Array.length !caps then
        caps := Array.append !caps (Array.make k 0);
      !caps.(k) <- id;
      !caps.(k + 1) <- start;
      !caps.(k + 2) <- !depth;
      incr n_open
    end
  in
  (* Runs before the element's level is popped: [!depth] is its depth. *)
  let cap_end tag =
    if Buffer.length cap_buf = !last_start_tag then begin
      Buffer.truncate cap_buf (!last_start_tag - 1);
      Buffer.add_string cap_buf "/>"
    end
    else begin
      Buffer.add_string cap_buf "</";
      Buffer.add_string cap_buf tag;
      Buffer.add_char cap_buf '>'
    end;
    let k = 3 * (!n_open - 1) in
    if !caps.(k + 2) = !depth then begin
      store !caps.(k) !caps.(k + 1);
      decr n_open;
      if !n_open = 0 then Buffer.clear cap_buf
    end
  in
  let cap_text id backing off len is_candidate =
    let start = Buffer.length cap_buf in
    Serializer.add_escaped_text cap_buf backing off len;
    last_start_tag := -1;
    if capture && is_candidate then store id start;
    if !n_open = 0 then Buffer.clear cap_buf
  in
  (* Tag ids by the pull parser's name id: the parser interns each name
     once, so an element's tag costs an array read rather than a second,
     string-keyed lookup in the table.  Filled on first sight; a driver
     without name ids passes [-1] and interns by name. *)
  let tag_of_name = ref (Array.make 64 unseen) in
  let tag_for name name_id =
    match tables with
    | None -> Tables.unknown_tag
    | Some tb when name_id < 0 -> Tables.intern tb name
    | Some tb ->
      if name_id >= Array.length !tag_of_name then
        tag_of_name :=
          Array.append !tag_of_name (Array.make (name_id + 1) unseen);
      let tag = Array.unsafe_get !tag_of_name name_id in
      if tag <> unseen then tag
      else begin
        let tag = Tables.intern tb name in
        !tag_of_name.(name_id) <- tag;
        tag
      end
  in
  let on_start name name_id emit_attrs =
    checkpoint ();
    let id = fresh_id () in
    if top_alive () then begin
      (match
         Engine.enter_element engine ~id ~tag:(tag_for name name_id) name
       with
      | Engine.Alive -> push_level true
      | Engine.Dead ->
        mark id Trace.Skipped_dead;
        push_level false);
      let candidate = Engine.entered_candidate engine in
      if !n_open > 0 || (capture && candidate) then
        cap_start ~candidate id name emit_attrs
    end
    else begin
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead;
      push_level false;
      if !n_open > 0 then cap_start ~candidate:false id name emit_attrs
    end
  in
  let on_end name =
    checkpoint ();
    if !depth = 0 then raise (Engine.Driver_error "unbalanced end event");
    if top_alive () then Engine.leave engine;
    if !n_open > 0 then cap_end name;
    decr depth
  in
  let on_text backing off len =
    checkpoint ();
    let id = fresh_id () in
    if top_alive () then begin
      match Engine.enter_text engine ~id backing off len with
      | Engine.Alive ->
        let candidate = Engine.entered_candidate engine in
        if !n_open > 0 || (capture && candidate) then
          cap_text id backing off len candidate;
        Engine.leave engine
      | Engine.Dead ->
        if !n_open > 0 then cap_text id backing off len false
    end
    else begin
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead;
      if !n_open > 0 then cap_text id backing off len false
    end
  in
  let budget_hit = ref None in
  (try
     drive ~on_start ~on_end ~on_text;
     final_check ()
   with Budget.Exceeded { what; limit } -> budget_hit := Some (what, limit));
  (engine, stats, finished_captures, !next_id, !budget_hit)

(* Zero-copy driver: names arrive interned from the cursor, text and
   attribute values as borrowed spans consumed inside the handler before
   the next [cursor_next] invalidates them. *)
let drive_cursor pull ~on_start ~on_end ~on_text =
  let emit_attrs buf =
    for i = 0 to Pull.cur_attr_count pull - 1 do
      Serializer.add_attr buf (Pull.cur_attr_name pull i)
        (Pull.cur_attr_backing pull i) (Pull.cur_attr_start pull i)
        (Pull.cur_attr_length pull i)
    done
  in
  let rec loop () =
    match Pull.cursor_next pull with
    | Pull.Cursor_eof -> ()
    | Pull.Cursor_start ->
      on_start (Pull.cur_name pull) (Pull.cur_name_id pull) emit_attrs;
      loop ()
    | Pull.Cursor_end ->
      on_end (Pull.cur_name pull);
      loop ()
    | Pull.Cursor_text ->
      on_text (Pull.cur_text_backing pull) (Pull.cur_text_start pull)
        (Pull.cur_text_length pull);
      loop ()
  in
  loop ()

let drive_events next ~on_start ~on_end ~on_text =
  let rec loop () =
    match next () with
    | None -> ()
    | Some ev ->
      (match ev with
      | Pull.Start_element (name, attrs) ->
        on_start name (-1) (fun buf -> Serializer.add_attrs buf attrs)
      | Pull.End_element name -> on_end name
      | Pull.Text content -> on_text content 0 (String.length content));
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
