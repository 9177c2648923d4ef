module Nfa = Smoqe_automata.Nfa
module Afa = Smoqe_automata.Afa
module Mfa = Smoqe_automata.Mfa
module Tables = Smoqe_automata.Tables

exception Driver_error of string

type kind =
  | El of string
  | Tx of string

type verdict =
  | Alive
  | Dead

(* A selection run of the generic path: an NFA state positioned at the
   current node with the qualifier conditions assumed so far.

   Qualifiers (the AFA side of the MFA) do not use runs with conditions:
   the engine propagates the set of {e active} AFA states downward (which
   atom automata could still make progress here) and computes their
   satisfaction bottom-up at each leave — HyPE's hybrid: NFA top-down,
   AFA settled on the way back up, one traversal total. *)
type item = {
  state : Nfa.state;
  conds : Conds.set;
}

(* Per-state AFA flags of a frame, one byte per state. *)
let f_mark = 1 (* activated at this node (generic path dedup) *)
let f_sat = 2 (* accepts within the (closed) subtree *)
let f_contrib = 4 (* a child pushed an accept up *)

(* Per-qualifier flags of a frame. *)
let q_here = 1 (* settled at this node *)
let q_req = 2 (* assumed by selection runs at this node *)

(* Frames live in a pool indexed by depth and are reused across siblings;
   the pool grows with the depth reached.  Every per-node collection is an
   array with a count that grows only when full, so entering a node
   allocates nothing once the frame at its depth has grown to size.

   The node itself is stored flat ([is_text], [name], and the text span
   [txt]/[txt_off]/[txt_len]) so drivers need not box a [kind].

   On the table path every set a frame holds is an id of the lazy-DFA
   registry: the check-free selection items ([set_id]), the conditional
   items grouped by their hash-consed condition set ([g_conds]/[g_set],
   [n_groups] groups) and the active AFA states ([act_id], whose states
   [active] aliases).  A registry flush re-interns the live frames' sets
   (see [flush_if_full]). *)
type frame = {
  mutable node : int;
  mutable is_text : bool;
  mutable name : string; (* element name; "" for text *)
  mutable txt : string; (* text node content: txt[txt_off, +txt_len) *)
  mutable txt_off : int;
  mutable txt_len : int;
  mutable tag : int; (* interned tag (table path); Tables.text_tag for text *)
  mutable items : item list; (* post-closure selection items (generic path) *)
  mutable set_id : int; (* check-free selection items (table path) *)
  mutable n_groups : int; (* conditional selection items (table path) *)
  mutable g_conds : int array; (* group -> condition set *)
  mutable g_set : int array; (* group -> its states' set id *)
  mutable act_id : int; (* active AFA states' set id (table path) *)
  mutable active : int array; (* active AFA states at this node *)
  mutable n_active : int;
  mutable quals_here : int array; (* qualifiers to settle at this node *)
  mutable n_here : int;
  mutable requested : int array; (* subset assumed by selection runs *)
  mutable req_cond : int array; (* their conditions: requested.(i) here *)
  mutable n_req : int;
  mutable may_accept_value : bool; (* some active state has a value accept *)
  mutable may_accept : bool; (* some active state has an accept *)
  mutable any_contrib : bool; (* some child pushed an accept up *)
  mutable any_sat : bool; (* some active state accepts in the subtree *)
  flags : Bytes.t; (* per state: f_mark | f_sat | f_contrib *)
  qflags : Bytes.t; (* per qualifier: q_here | q_req *)
  mutable text : Bytes.t; (* immediate text (element value) *)
  mutable text_len : int;
}

(* One interned state set of the lazy-DFA registry, with what the engine
   needs to know about it precomputed at interning. *)
type set_info = {
  states : int array; (* canonical: sorted, duplicate-free *)
  accepts : int array; (* its select-accepting states *)
  eps_checks : int; (* checks met on one epsilon edge out of the set *)
  quals : int array; (* qualifiers its states check, sorted *)
  value_accept : bool; (* some state has a value-equality atom accept *)
  any_accept : bool; (* some state has an atom accept *)
}

(* A memoized selection step: the interned next check-free set, and the
   check-guarded states reached during its closure.  Seeds re-attach
   their node-local conditions per node — qualifiers are memo-exempt.
   [seeds_w] and [direct_w] carry the [conds_created] accounting of the
   per-item closure this step replaces: the checks of the seeds, and the
   checks of the raw targets carrying checks (with multiplicity). *)
type trans = {
  next_id : int;
  next : set_info;
  seeds : int array;
  seeds_w : int;
  direct_w : int;
}

let no_info =
  { states = [||]; accepts = [||]; eps_checks = 0; quals = [||];
    value_accept = false; any_accept = false }

(* Sentinel for empty memo slots: [next_id] is never negative for a real
   transition, so one int compare distinguishes hit from miss. *)
let no_trans = { next_id = -1; next = no_info; seeds = [||]; seeds_w = 0; direct_w = 0 }

type t = {
  mfa : Mfa.t;
  nfa : Nfa.t;
  tables : Tables.t option;
  (* per-state statics *)
  value_accepts : string array array; (* value constraints on atom accepts *)
  plain_accept : bool array; (* has an unconditional atom accept *)
  select_accept : bool array;
  atom_starts : int array array; (* per qualifier: its atoms' entry states *)
  qual_order : int array; (* dependency-topological same-node order *)
  n_quals : int;
  (* batch demultiplexing: which queries select at each accept state.  A
     single-query engine has every select state owned by query 0; a batch
     engine gets the owner table of the shared-automaton merge.  Candidate
     recording fans one (node, conds) entry out to each owner's Cans. *)
  owners : int array array;
  n_queries : int;
  (* dynamics *)
  conds : Conds.t;
  (* Conditions "qualifier q holds at node n" are numbered densely in the
     order selection runs first assume them. *)
  mutable n_cond : int;
  mutable cond_val : Bytes.t;
      (* by condition: '\000' unsettled, '\001' false, '\002' true *)
  cond_of : int array;
      (* per qualifier: its condition at the node being entered *)
  cans : Cans.t array; (* one per query *)
  stats : Stats.t;
  trace : Trace.t option;
  mutable frames : frame array;
  mutable n_frames : int; (* frames built so far (the deepest depth reached) *)
  mutable depth : int;
  mutable out_items : item list; (* generic selection-closure workspace *)
  mutable n_out : int;
  item_mark : Bytes.t; (* per-state closure dedup: bit0 = seen with empty
                          conds, bit1 = seen with conds (scan needed) *)
  closure_mark : Bytes.t; (* closure scratch *)
  (* lazy-DFA registry: interned state sets, per-run *)
  mutable dfa : set_info array; (* id -> set *)
  mutable dfa_n : int;
  dfa_ids : (string, int) Hashtbl.t; (* packed states -> id *)
  mutable memo_rows : trans array array; (* tag+1 -> set id -> transition *)
  mutable act_rows : int array array; (* tag+1 -> active set id -> next *)
  memo_cap : int; (* distinct sets before the registry is flushed *)
  (* set-union memo over registry ids: open addressing, key pairs in
     [u_keys.(2i), u_keys.(2i+1)] (-1 = free), result in [u_vals.(i)] *)
  mutable u_keys : int array;
  mutable u_vals : int array;
  mutable u_n : int;
  (* per seed state: the id of {seed} + its check-free epsilon closure
     (-1 until computed), and the checked states that closure stops at *)
  mutable seed_ids : int array;
  mutable seed_subs : int array array;
  qual_acts : int array; (* per qualifier: id of its atoms' activation *)
  qvals : bool array; (* per-leave qualifier scratch *)
  qval_epoch : int array; (* node-epoch in which each entry was settled *)
  mutable epoch : int;
  mutable entered_candidate : bool; (* last enter recorded a candidate *)
  mutable finished : bool;
  (* Fired from [enter] every 32nd node with the running node count, so a
     driver can settle resource budgets without per-node work of its own.
     The land-and-branch is paid by every run; the callback only by
     budgeted ones. *)
  mutable on_checkpoint : (int -> unit) option;
}

let new_frame n_states n_quals =
  {
    node = -1;
    is_text = false;
    name = "";
    txt = "";
    txt_off = 0;
    txt_len = 0;
    tag = Tables.unknown_tag;
    items = [];
    set_id = -1;
    n_groups = 0;
    g_conds = [||];
    g_set = [||];
    act_id = -1;
    active = [||];
    n_active = 0;
    quals_here = [||];
    n_here = 0;
    requested = [||];
    req_cond = [||];
    n_req = 0;
    may_accept_value = false;
    may_accept = false;
    any_contrib = false;
    any_sat = false;
    flags = Bytes.make n_states '\000';
    qflags = Bytes.make (max 1 n_quals) '\000';
    text = Bytes.empty;
    text_len = 0;
  }

let placeholder_frame = new_frame 0 0

let create ?trace ?tables ?(memo_cap = 4096) ?owners ?n_queries mfa =
  (match tables with
  | Some tb when Tables.nfa tb != mfa.Mfa.nfa ->
    raise (Driver_error "tables built for a different automaton")
  | Some _ | None -> ());
  let nfa = mfa.Mfa.nfa in
  let n_states = nfa.Nfa.n_states in
  let n_quals = Array.length mfa.Mfa.quals in
  let value_accepts = Array.make n_states [||] in
  let plain_accept = Array.make n_states false in
  let select_accept = Array.make n_states false in
  for s = 0 to n_states - 1 do
    let values = ref [] in
    List.iter
      (fun accept ->
        match accept with
        | Nfa.Select -> select_accept.(s) <- true
        | Nfa.Atom_accept aid ->
          (match (mfa.Mfa.atoms.(aid)).Afa.value with
          | None -> plain_accept.(s) <- true
          | Some c -> values := c :: !values))
      nfa.Nfa.accepts.(s);
    if !values <> [] then value_accepts.(s) <- Array.of_list !values
  done;
  let atom_starts =
    Array.map
      (fun formula ->
        Array.of_list
          (List.map
             (fun aid -> (mfa.Mfa.atoms.(aid)).Afa.start)
             (Afa.atoms_of formula)))
      mfa.Mfa.quals
  in
  (* Same-node settlement order: a qualifier depends on the qualifiers
     checked inside its atom subgraphs (nested view qualifiers, or the
     view-definition qualifiers a rewritten MFA splices into product
     atoms).  Acyclic by construction. *)
  let qual_order =
    let deps =
      Array.map
        (fun formula ->
          let states =
            List.concat_map
              (fun aid ->
                Nfa.reachable_states nfa (mfa.Mfa.atoms.(aid)).Afa.start)
              (Afa.atoms_of formula)
          in
          List.sort_uniq compare
            (List.concat_map (fun s -> nfa.Nfa.checks.(s)) states))
        mfa.Mfa.quals
    in
    let color = Array.make n_quals 0 in
    let order = ref [] in
    let rec visit q =
      if color.(q) = 1 then raise (Driver_error "cyclic qualifier dependency")
      else if color.(q) = 0 then begin
        color.(q) <- 1;
        List.iter visit deps.(q);
        color.(q) <- 2;
        order := q :: !order
      end
    in
    for q = 0 to n_quals - 1 do
      visit q
    done;
    Array.of_list (List.rev !order)
  in
  let n_queries =
    match (n_queries, owners) with
    | Some n, _ -> max 1 n
    | None, None -> 1
    | None, Some ow ->
      let m = ref 0 in
      Array.iter (Array.iter (fun q -> if q >= !m then m := q + 1)) ow;
      max 1 !m
  in
  let owners =
    match owners with
    | Some ow ->
      if Array.length ow <> n_states then
        raise (Driver_error "owners table sized for a different automaton");
      ow
    | None -> Array.make n_states [| 0 |]
  in
  {
    mfa;
    nfa;
    tables;
    value_accepts;
    plain_accept;
    select_accept;
    atom_starts;
    qual_order;
    n_quals;
    owners;
    n_queries;
    conds = Conds.create ();
    n_cond = 0;
    cond_val = Bytes.empty;
    cond_of = Array.make n_quals (-1);
    cans = Array.init n_queries (fun _ -> Cans.create ());
    stats = Stats.create ();
    trace;
    frames = Array.make 16 placeholder_frame;
    n_frames = 0;
    depth = 0;
    out_items = [];
    n_out = 0;
    item_mark = Bytes.make n_states '\000';
    closure_mark = Bytes.make n_states '\000';
    dfa = Array.make 64 no_info;
    dfa_n = 0;
    dfa_ids = Hashtbl.create 256;
    memo_rows = [||];
    act_rows = [||];
    memo_cap = max 2 memo_cap;
    u_keys = [||];
    u_vals = [||];
    u_n = 0;
    seed_ids = [||];
    seed_subs = [||];
    qual_acts = Array.make n_quals (-1);
    qvals = Array.make (max 1 n_quals) false;
    qval_epoch = Array.make (max 1 n_quals) (-1);
    epoch = 0;
    entered_candidate = false;
    finished = false;
    on_checkpoint = None;
  }

let stats t = t.stats
let n_queries t = t.n_queries
let cans_size t = Array.fold_left (fun acc c -> acc + Cans.size c) 0 t.cans
let set_checkpoint t f = t.on_checkpoint <- Some f

let trace_mark t node m =
  match t.trace with None -> () | Some tr -> Trace.mark tr node m

(* A copy of [a] twice as long (at least [min]), contents [0, n) kept. *)
let grown a n min =
  let b = Array.make (max min (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 n;
  b

let flag frame s = Char.code (Bytes.unsafe_get frame.flags s)
let set_flag frame s bit =
  Bytes.unsafe_set frame.flags s (Char.unsafe_chr (flag frame s lor bit))

let qflag frame q = Char.code (Bytes.unsafe_get frame.qflags q)
let set_qflag frame q bit =
  Bytes.unsafe_set frame.qflags q (Char.unsafe_chr (qflag frame q lor bit))

(* Qualifier [q] will be settled at this node. *)
let add_here t frame q =
  set_qflag frame q q_here;
  if frame.n_here = Array.length frame.quals_here then
    frame.quals_here <- grown frame.quals_here frame.n_here 4;
  frame.quals_here.(frame.n_here) <- q;
  frame.n_here <- frame.n_here + 1;
  t.stats.Stats.atom_instances <-
    t.stats.Stats.atom_instances + Array.length t.atom_starts.(q)

(* A selection run assumes qualifier [q] at this node: the condition it
   assumes is [t.cond_of.(q)], numbered on the node's first request. *)
let add_request t frame q =
  if qflag frame q land q_req = 0 then begin
    set_qflag frame q q_req;
    if frame.n_req = Array.length frame.requested then begin
      frame.requested <- grown frame.requested frame.n_req 4;
      frame.req_cond <- grown frame.req_cond frame.n_req 4
    end;
    frame.requested.(frame.n_req) <- q;
    (* conditions are numbered in visiting order: this node's exceed every
       earlier node's *)
    if frame.n_req = 0 then Conds.seal t.conds;
    frame.req_cond.(frame.n_req) <- t.n_cond;
    frame.n_req <- frame.n_req + 1;
    t.cond_of.(q) <- t.n_cond;
    t.n_cond <- t.n_cond + 1
  end

(* --- active AFA state propagation: generic path ----------------------------- *)

(* Activate an AFA state at a frame: mark it, follow its epsilon edges, and
   make sure the qualifiers it checks will be settled here (spawning their
   atoms' entry states in turn). *)
let rec activate t frame s =
  if flag frame s land f_mark = 0 then begin
    Bytes.unsafe_set frame.flags s (Char.unsafe_chr f_mark);
    if frame.n_active = Array.length frame.active then
      frame.active <- grown frame.active frame.n_active 8;
    frame.active.(frame.n_active) <- s;
    frame.n_active <- frame.n_active + 1;
    if Array.length t.value_accepts.(s) > 0 then begin
      frame.may_accept_value <- true;
      frame.may_accept <- true
    end;
    if t.plain_accept.(s) then frame.may_accept <- true;
    List.iter (fun q -> note_qual t frame q) t.nfa.Nfa.checks.(s);
    List.iter (fun s' -> activate t frame s') t.nfa.Nfa.eps.(s)
  end

and note_qual t frame q =
  if qflag frame q land q_here = 0 then begin
    add_here t frame q;
    Array.iter (fun s -> activate t frame s) t.atom_starts.(q)
  end

(* --- candidates ------------------------------------------------------------ *)

(* The node is a candidate under [conds], once per accepting state and per
   query owning it. *)
let record_candidates t node accepts conds =
  for i = 0 to Array.length accepts - 1 do
    let ow = t.owners.(Array.unsafe_get accepts i) in
    t.stats.Stats.candidates <- t.stats.Stats.candidates + Array.length ow;
    t.entered_candidate <- true;
    trace_mark t node Trace.In_cans;
    for j = 0 to Array.length ow - 1 do
      Cans.add t.cans.(Array.unsafe_get ow j) ~node conds
    done
  done

(* --- selection-run closure: generic path ----------------------------------- *)

let matches_node test ~is_text ~name =
  Nfa.matches_name test ~is_element:(not is_text) ~name

(* Per-node item dedup via [t.item_mark]: items with empty conds are
   uniquely keyed by state (bit 0); items carrying conds set bit 1 and
   fall back to scanning only the (typically short) workspace list for a
   same-state-same-conds twin.  Marks are cleared by [take_items]. *)
let rec push_item t frame item =
  let item =
    match t.nfa.Nfa.checks.(item.state) with
    | [] -> item
    | checks ->
      let conds =
        List.fold_left
          (fun conds q ->
            note_qual t frame q;
            add_request t frame q;
            t.stats.Stats.conds_created <- t.stats.Stats.conds_created + 1;
            Conds.add t.conds conds t.cond_of.(q))
          item.conds checks
      in
      { item with conds }
  in
  let s = item.state in
  let m = Char.code (Bytes.get t.item_mark s) in
  let empty = Conds.is_empty item.conds in
  let dup =
    if empty then m land 1 <> 0
    else
      m land 2 <> 0
      && List.exists (fun it -> it.state = s && it.conds = item.conds) t.out_items
  in
  if not dup then begin
    Bytes.set t.item_mark s (Char.chr (m lor if empty then 1 else 2));
    t.out_items <- item :: t.out_items;
    t.n_out <- t.n_out + 1;
    if t.select_accept.(s) then record_candidates t frame.node [| s |] item.conds;
    List.iter (fun s' -> push_item t frame { item with state = s' }) t.nfa.Nfa.eps.(s)
  end

(* Drain the closure workspace and clear its dedup marks. *)
let take_items t =
  let items = t.out_items in
  List.iter (fun (it : item) -> Bytes.set t.item_mark it.state '\000') items;
  t.out_items <- [];
  items

(* --- lazy-DFA registry ----------------------------------------------------- *)

let key_of_states states =
  let b = Buffer.create (4 * Array.length states) in
  Array.iter (fun s -> Buffer.add_int32_le b (Int32.of_int s)) states;
  Buffer.contents b

let info_of t states =
  let nfa = t.nfa in
  let quals =
    List.sort_uniq Int.compare
      (Array.fold_left (fun acc s -> nfa.Nfa.checks.(s) @ acc) [] states)
  in
  {
    states;
    accepts =
      Array.of_list (List.filter (fun s -> t.select_accept.(s)) (Array.to_list states));
    eps_checks =
      Array.fold_left
        (fun acc s ->
          List.fold_left
            (fun acc s' -> acc + List.length nfa.Nfa.checks.(s'))
            acc nfa.Nfa.eps.(s))
        0 states;
    quals = Array.of_list quals;
    value_accept = Array.exists (fun s -> Array.length t.value_accepts.(s) > 0) states;
    any_accept =
      Array.exists
        (fun s -> t.plain_accept.(s) || Array.length t.value_accepts.(s) > 0)
        states;
  }

(* Intern a canonical (sorted) state set.  Interning never flushes: the
   registry may overrun [memo_cap] within one node, and [flush_if_full]
   empties it before the next, so every id a node's step holds stays
   valid for the whole step. *)
let intern_set t states =
  let key = key_of_states states in
  match Hashtbl.find_opt t.dfa_ids key with
  | Some id -> id
  | None ->
    let id = t.dfa_n in
    if id >= Array.length t.dfa then begin
      let bigger = Array.make (2 * Array.length t.dfa) no_info in
      Array.blit t.dfa 0 bigger 0 id;
      t.dfa <- bigger
    end;
    t.dfa.(id) <- info_of t states;
    t.dfa_n <- id + 1;
    Hashtbl.add t.dfa_ids key id;
    id

(* When the registry exceeds [memo_cap] distinct sets the lazy DFA is
   flushed wholesale — registry, memos and unions — rather than evicted
   piecemeal.  The open frames' sets are re-interned into the fresh
   registry, so a frame's ids are always live. *)
let flush_if_full t =
  if t.dfa_n >= t.memo_cap then begin
    let dfa = t.dfa in
    Hashtbl.reset t.dfa_ids;
    t.dfa <- Array.make (Array.length dfa) no_info;
    t.dfa_n <- 0;
    t.memo_rows <- [||];
    t.act_rows <- [||];
    if t.u_n > 0 then begin
      Array.fill t.u_keys 0 (Array.length t.u_keys) (-1);
      t.u_n <- 0
    end;
    Array.fill t.seed_ids 0 (Array.length t.seed_ids) (-1);
    Array.fill t.qual_acts 0 (Array.length t.qual_acts) (-1);
    for d = 0 to t.depth - 1 do
      let f = t.frames.(d) in
      f.set_id <- intern_set t dfa.(f.set_id).states;
      f.act_id <- intern_set t dfa.(f.act_id).states;
      for i = 0 to f.n_groups - 1 do
        f.g_set.(i) <- intern_set t dfa.(f.g_set.(i)).states
      done
    done;
    t.stats.Stats.memo_evictions <- t.stats.Stats.memo_evictions + 1
  end

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  a

(* Closure of [feed]'s states, split by check status: check-free states
   follow their epsilon edges into [next]; states with checks stop as
   [seeds] — their closure continues per node under the conds the seed
   processing attaches. *)
let close_collect t feed =
  let nfa = t.nfa in
  let cmark = t.closure_mark in
  let next = ref [] in
  let seeds = ref [] in
  let rec close s =
    if Bytes.get cmark s = '\000' then begin
      Bytes.set cmark s '\001';
      if nfa.Nfa.checks.(s) = [] then begin
        next := s :: !next;
        List.iter close nfa.Nfa.eps.(s)
      end
      else seeds := s :: !seeds
    end
  in
  feed close;
  List.iter (fun s -> Bytes.set cmark s '\000') !next;
  List.iter (fun s -> Bytes.set cmark s '\000') !seeds;
  (sorted_of_list !next, sorted_of_list !seeds)

(* Activation closure of [feed]'s states: epsilon edges, and the atom
   entries of every qualifier a reached state checks. *)
let activation t feed =
  let nfa = t.nfa in
  let cmark = t.closure_mark in
  let acc = ref [] in
  let rec close s =
    if Bytes.get cmark s = '\000' then begin
      Bytes.set cmark s '\001';
      acc := s :: !acc;
      List.iter close nfa.Nfa.eps.(s);
      List.iter (fun q -> Array.iter close t.atom_starts.(q)) nfa.Nfa.checks.(s)
    end
  in
  feed close;
  List.iter (fun s -> Bytes.set cmark s '\000') !acc;
  intern_set t (sorted_of_list !acc)

let checks_weight t states =
  Array.fold_left (fun acc s -> acc + List.length t.nfa.Nfa.checks.(s)) 0 states

(* Flat memo rows: [rows.(tag + 1).(id)], grown on demand; both index
   spaces are small and dense.  [tag + 1] keeps the frozen-table
   [unknown_tag] sentinel non-negative. *)
let row_for rows tag1 sid empty =
  let rows =
    if tag1 < Array.length rows then rows
    else begin
      let n = max 8 (max (tag1 + 1) (2 * Array.length rows)) in
      let bigger = Array.make n [||] in
      Array.blit rows 0 bigger 0 (Array.length rows);
      bigger
    end
  in
  let row = rows.(tag1) in
  if sid >= Array.length row then begin
    let bigger = Array.make (max 64 (max (sid + 1) (2 * Array.length row))) empty in
    Array.blit row 0 bigger 0 (Array.length row);
    rows.(tag1) <- bigger
  end;
  rows

(* The hit path is two array loads — no hashing, no allocation. *)
let memo_find t sid tag =
  let tag1 = tag + 1 in
  if tag1 < Array.length t.memo_rows then begin
    let row = Array.unsafe_get t.memo_rows tag1 in
    if sid < Array.length row then Array.unsafe_get row sid else no_trans
  end
  else no_trans

let memo_compute t tb sid tag =
  let direct_w = ref 0 in
  let next, seeds =
    close_collect t (fun close ->
        Array.iter
          (fun s ->
            let tg = Tables.targets tb s tag in
            direct_w := !direct_w + checks_weight t tg;
            Array.iter close tg)
          t.dfa.(sid).states)
  in
  let next_id = intern_set t next in
  let tr =
    { next_id; next = t.dfa.(next_id); seeds; seeds_w = checks_weight t seeds;
      direct_w = !direct_w }
  in
  t.memo_rows <- row_for t.memo_rows (tag + 1) sid no_trans;
  t.memo_rows.(tag + 1).(sid) <- tr;
  tr

(* One lazy-DFA selection step: [(set, tag) -> trans], memoized.  The
   transition of a state set does not depend on the conditions its items
   carry, so the check-free set and every condition group step through
   the same memo. *)
let step t tb sid tag =
  let tr = memo_find t sid tag in
  if tr.next_id >= 0 then tr else memo_compute t tb sid tag

(* One activation step: the active set of a child with this tag. *)
let act_step t tb aid tag =
  let tag1 = tag + 1 in
  let hit =
    if tag1 < Array.length t.act_rows then begin
      let row = Array.unsafe_get t.act_rows tag1 in
      if aid < Array.length row then Array.unsafe_get row aid else -1
    end
    else -1
  in
  if hit >= 0 then hit
  else begin
    let id =
      activation t (fun close ->
          Array.iter (fun s -> Array.iter close (Tables.targets tb s tag))
            t.dfa.(aid).states)
    in
    t.act_rows <- row_for t.act_rows tag1 aid (-1);
    t.act_rows.(tag1).(aid) <- id;
    id
  end

let qual_activation t q =
  let id = t.qual_acts.(q) in
  if id >= 0 then id
  else begin
    let id = activation t (fun close -> Array.iter close t.atom_starts.(q)) in
    t.qual_acts.(q) <- id;
    id
  end

(* Sorted-array membership. *)
let rec mem_sorted a x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let v = Array.unsafe_get a mid in
  if v = x then true
  else if v < x then mem_sorted a x (mid + 1) hi
  else mem_sorted a x lo mid

let merge_sorted a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i = na && j = nb then k
    else if j = nb || (i < na && a.(i) < b.(j)) then begin
      out.(k) <- a.(i);
      go (i + 1) j (k + 1)
    end
    else if i = na || b.(j) < a.(i) then begin
      out.(k) <- b.(j);
      go i (j + 1) (k + 1)
    end
    else begin
      out.(k) <- a.(i);
      go (i + 1) (j + 1) (k + 1)
    end
  in
  Array.sub out 0 (go 0 0 0)

let union_hash a b = ((a * 0x2c1b3c6d) lxor (b * 0x297a2d39)) lxor (a lsr 7)

let rec union_probe t a b i mask =
  let ka = Array.unsafe_get t.u_keys (2 * i) in
  if ka < 0 then -1 - i
  else if ka = a && Array.unsafe_get t.u_keys ((2 * i) + 1) = b then i
  else union_probe t a b ((i + 1) land mask) mask

let union_insert t a b v =
  let mask = Array.length t.u_vals - 1 in
  let i = -1 - union_probe t a b (union_hash a b land mask) mask in
  t.u_keys.(2 * i) <- a;
  t.u_keys.((2 * i) + 1) <- b;
  t.u_vals.(i) <- v;
  t.u_n <- t.u_n + 1

(* Interned union of two interned sets, memoized by id pair. *)
let union_sets t a b =
  if a = b then a
  else begin
    let lo = if a < b then a else b and hi = if a < b then b else a in
    let mask = Array.length t.u_vals - 1 in
    let i =
      if mask < 0 then -1
      else union_probe t lo hi (union_hash lo hi land mask) mask
    in
    if i >= 0 then t.u_vals.(i)
    else begin
      let id = intern_set t (merge_sorted t.dfa.(lo).states t.dfa.(hi).states) in
      if 2 * (t.u_n + 1) > Array.length t.u_vals then begin
        let old_keys = t.u_keys and old_vals = t.u_vals in
        let cap = max 64 (2 * Array.length old_vals) in
        t.u_keys <- Array.make (2 * cap) (-1);
        t.u_vals <- Array.make cap 0;
        t.u_n <- 0;
        for j = 0 to Array.length old_vals - 1 do
          if old_keys.(2 * j) >= 0 then
            union_insert t old_keys.(2 * j) old_keys.((2 * j) + 1) old_vals.(j)
        done
      end;
      union_insert t lo hi id;
      id
    end
  end

(* The set {x} plus x's check-free epsilon closure, memoized per seed
   state; the checked states that closure stops at go to [seed_subs]. *)
let seed_set t x =
  if Array.length t.seed_ids = 0 then begin
    t.seed_ids <- Array.make t.nfa.Nfa.n_states (-1);
    t.seed_subs <- Array.make t.nfa.Nfa.n_states [||]
  end;
  let id = Array.unsafe_get t.seed_ids x in
  if id >= 0 then id
  else begin
    let next, subs =
      close_collect t (fun close -> List.iter close t.nfa.Nfa.eps.(x))
    in
    let id = intern_set t (merge_sorted [| x |] next) in
    t.seed_ids.(x) <- id;
    t.seed_subs.(x) <- subs;
    id
  end

(* --- condition groups ------------------------------------------------------ *)

let rec find_group frame c i =
  if i >= frame.n_groups then -1
  else if Array.unsafe_get frame.g_conds i = c then i
  else find_group frame c (i + 1)

(* Items [(s, c)] for every [s] of the interned set [sid]. *)
let add_group t frame c sid =
  let i = find_group frame c 0 in
  if i >= 0 then frame.g_set.(i) <- union_sets t frame.g_set.(i) sid
  else begin
    let n = frame.n_groups in
    if n = Array.length frame.g_conds then begin
      frame.g_conds <- grown frame.g_conds n 4;
      frame.g_set <- grown frame.g_set n 4
    end;
    frame.g_conds.(n) <- c;
    frame.g_set.(n) <- sid;
    frame.n_groups <- n + 1
  end

(* [conds] plus every qualifier of [checks] assumed at this node. *)
let rec add_checks t frame conds = function
  | [] -> conds
  | q :: rest ->
    add_request t frame q;
    add_checks t frame (Conds.add t.conds conds t.cond_of.(q)) rest

(* A checked state [x] reached under conditions [base]: the run assumes
   x's qualifiers here, then continues through x's epsilon closure.  An
   item already present (same state, same conditions) stops the closure —
   the per-item dedup of the generic path, at set granularity. *)
let rec process_seed t frame x base =
  let c = add_checks t frame base t.nfa.Nfa.checks.(x) in
  let i = find_group frame c 0 in
  if
    i < 0
    ||
    let states = t.dfa.(frame.g_set.(i)).states in
    not (mem_sorted states x 0 (Array.length states))
  then begin
    add_group t frame c (seed_set t x);
    let subs = t.seed_subs.(x) in
    for k = 0 to Array.length subs - 1 do
      process_seed t frame (Array.unsafe_get subs k) c
    done
  end

let process_seeds t frame seeds base =
  for k = 0 to Array.length seeds - 1 do
    process_seed t frame (Array.unsafe_get seeds k) base
  done

(* Settle the node's selection items: candidates per group, and the
   counters the per-item closure would have produced. *)
let finish_items t frame =
  let n_items = ref (Array.length t.dfa.(frame.set_id).states) in
  for i = 0 to frame.n_groups - 1 do
    let info = t.dfa.(frame.g_set.(i)) in
    n_items := !n_items + Array.length info.states;
    t.stats.Stats.conds_created <- t.stats.Stats.conds_created + info.eps_checks;
    record_candidates t frame.node info.accepts frame.g_conds.(i)
  done;
  if !n_items > t.stats.Stats.max_items then t.stats.Stats.max_items <- !n_items

(* The node's active AFA states: the parent's stepped into it ([aid]),
   plus the activation of every qualifier selection runs assumed here.
   Every qualifier an active state checks, and every assumed one, is
   settled here. *)
let settle_active t frame aid =
  let aid = ref aid in
  for i = 0 to frame.n_req - 1 do
    let q = frame.requested.(i) in
    let quals = t.dfa.(!aid).quals in
    if not (mem_sorted quals q 0 (Array.length quals)) then
      aid := union_sets t !aid (qual_activation t q)
  done;
  let info = t.dfa.(!aid) in
  frame.act_id <- !aid;
  if frame.active != info.states then frame.active <- info.states;
  frame.n_active <- Array.length info.states;
  frame.may_accept_value <- info.value_accept;
  frame.may_accept <- info.any_accept;
  let quals = info.quals in
  for i = 0 to Array.length quals - 1 do
    add_here t frame (Array.unsafe_get quals i)
  done;
  for i = 0 to frame.n_req - 1 do
    let q = frame.requested.(i) in
    if qflag frame q land q_here = 0 then add_here t frame q
  done

(* --- frames ---------------------------------------------------------------- *)

let clear_frame frame =
  (* Reset the flags touched by the previous tenant of this depth. *)
  for i = 0 to frame.n_active - 1 do
    Bytes.unsafe_set frame.flags (Array.unsafe_get frame.active i) '\000'
  done;
  for i = 0 to frame.n_here - 1 do
    Bytes.unsafe_set frame.qflags (Array.unsafe_get frame.quals_here i) '\000'
  done;
  for i = 0 to frame.n_req - 1 do
    Bytes.unsafe_set frame.qflags (Array.unsafe_get frame.requested i) '\000'
  done;
  frame.n_active <- 0;
  frame.n_here <- 0;
  frame.n_req <- 0;
  frame.n_groups <- 0;
  frame.text_len <- 0;
  frame.may_accept_value <- false;
  frame.may_accept <- false;
  frame.any_contrib <- false;
  frame.any_sat <- false

let push_frame t id ~tag ~is_text ~name ~txt ~off ~len =
  let d = t.depth in
  if d = t.n_frames then begin
    if d = Array.length t.frames then begin
      let bigger = Array.make (2 * d) placeholder_frame in
      Array.blit t.frames 0 bigger 0 d;
      t.frames <- bigger
    end;
    t.frames.(d) <- new_frame t.nfa.Nfa.n_states t.n_quals;
    t.n_frames <- d + 1
  end;
  let frame = t.frames.(d) in
  t.depth <- d + 1;
  clear_frame frame;
  frame.node <- id;
  frame.is_text <- is_text;
  if frame.name != name then frame.name <- name;
  if frame.txt != txt then frame.txt <- txt;
  frame.txt_off <- off;
  frame.txt_len <- len;
  frame.tag <- tag;
  frame

(* Text accumulation: element values are needed when a value-equality atom
   can accept at the parent, so immediate text is collected only then. *)
let accumulate_text parent txt off len =
  if parent.may_accept_value then begin
    let need = parent.text_len + len in
    if need > Bytes.length parent.text then begin
      let b = Bytes.create (max 64 (max need (2 * Bytes.length parent.text))) in
      Bytes.blit parent.text 0 b 0 parent.text_len;
      parent.text <- b
    end;
    Bytes.blit_string txt off parent.text parent.text_len len;
    parent.text_len <- need
  end

(* --- enter: generic path --------------------------------------------------- *)

let rec any_item_matches ~is_text ~name items delta =
  match items with
  | [] -> false
  | item :: rest ->
    List.exists (fun (test, _) -> matches_node test ~is_text ~name) delta.(item.state)
    || any_item_matches ~is_text ~name rest delta

let any_active_matches ~is_text ~name parent delta =
  let rec scan i =
    i < parent.n_active
    && (List.exists
          (fun (test, _) -> matches_node test ~is_text ~name)
          delta.(parent.active.(i))
       || scan (i + 1))
  in
  scan 0

let enter_generic t ~id ~tag ~is_text ~name ~txt ~off ~len =
  let nfa = t.nfa in
  if t.depth = 0 then begin
    let frame = push_frame t id ~tag ~is_text ~name ~txt ~off ~len in
    t.out_items <- [];
    t.n_out <- 0;
    push_item t frame { state = t.mfa.Mfa.start; conds = Conds.empty };
    frame.items <- take_items t;
    t.stats.Stats.nodes_alive <- t.stats.Stats.nodes_alive + 1;
    trace_mark t id Trace.Visited;
    Alive
  end
  else begin
    let parent = t.frames.(t.depth - 1) in
    if is_text then accumulate_text parent txt off len;
    if
      (not (any_item_matches ~is_text ~name parent.items nfa.Nfa.delta))
      && not (any_active_matches ~is_text ~name parent nfa.Nfa.delta)
    then begin
      trace_mark t id Trace.Dead;
      Dead
    end
    else begin
      let frame = push_frame t id ~tag ~is_text ~name ~txt ~off ~len in
      (* active AFA states: consumable continuations of the parent's *)
      for i = 0 to parent.n_active - 1 do
        List.iter
          (fun (test, s') ->
            if matches_node test ~is_text ~name then activate t frame s')
          nfa.Nfa.delta.(parent.active.(i))
      done;
      (* selection items *)
      t.out_items <- [];
      t.n_out <- 0;
      List.iter
        (fun item ->
          List.iter
            (fun (test, s') ->
              if matches_node test ~is_text ~name then
                push_item t frame { item with state = s' })
            nfa.Nfa.delta.(item.state))
        parent.items;
      frame.items <- take_items t;
      if t.n_out > t.stats.Stats.max_items then
        t.stats.Stats.max_items <- t.n_out;
      t.stats.Stats.nodes_alive <- t.stats.Stats.nodes_alive + 1;
      trace_mark t id Trace.Visited;
      Alive
    end
  end

(* --- enter: table path ----------------------------------------------------- *)

let rec any_group_steps t tb parent tag i =
  i < parent.n_groups
  && (let tr = step t tb parent.g_set.(i) tag in
      Array.length tr.next.states > 0
      || Array.length tr.seeds > 0
      || any_group_steps t tb parent tag (i + 1))

let enter_root_tables t frame =
  let next, seeds = close_collect t (fun close -> close t.mfa.Mfa.start) in
  frame.set_id <- intern_set t next;
  record_candidates t frame.node t.dfa.(frame.set_id).accepts Conds.empty;
  t.stats.Stats.conds_created <-
    t.stats.Stats.conds_created + checks_weight t seeds;
  process_seeds t frame seeds Conds.empty;
  finish_items t frame;
  settle_active t frame (intern_set t [||])

(* The check-free set takes one memoized step; each condition group of
   the parent takes one too, keeping its conditions; seeds attach the
   node-local conditions of their checks; the active AFA states take one
   memoized activation step. *)
let enter_tables t tb ~id ~tag ~is_text ~name ~txt ~off ~len =
  flush_if_full t;
  if t.depth = 0 then
    enter_root_tables t (push_frame t id ~tag ~is_text ~name ~txt ~off ~len)
  else begin
    let parent = t.frames.(t.depth - 1) in
    if is_text then accumulate_text parent txt off len;
    let sid = parent.set_id in
    let tr = memo_find t sid tag in
    let tr =
      if tr.next_id >= 0 then begin
        t.stats.Stats.memo_hits <- t.stats.Stats.memo_hits + 1;
        tr
      end
      else begin
        t.stats.Stats.memo_misses <- t.stats.Stats.memo_misses + 1;
        memo_compute t tb sid tag
      end
    in
    let aid = act_step t tb parent.act_id tag in
    if
      Array.length tr.next.states = 0
      && Array.length tr.seeds = 0
      && Array.length t.dfa.(aid).states = 0
      && not (any_group_steps t tb parent tag 0)
    then trace_mark t id Trace.Dead
    else begin
      let frame = push_frame t id ~tag ~is_text ~name ~txt ~off ~len in
      frame.set_id <- tr.next_id;
      record_candidates t id tr.next.accepts Conds.empty;
      t.stats.Stats.conds_created <- t.stats.Stats.conds_created + tr.seeds_w;
      process_seeds t frame tr.seeds Conds.empty;
      for i = 0 to parent.n_groups - 1 do
        let gt = step t tb parent.g_set.(i) tag in
        let c = parent.g_conds.(i) in
        t.stats.Stats.conds_created <- t.stats.Stats.conds_created + gt.direct_w;
        if Array.length gt.next.states > 0 then add_group t frame c gt.next_id;
        process_seeds t frame gt.seeds c
      done;
      finish_items t frame;
      settle_active t frame aid
    end
  end

let enter_core t ~id ~tag ~is_text ~name ~txt ~off ~len =
  if t.finished then raise (Driver_error "enter after finish");
  t.entered_candidate <- false;
  let n_entered = t.stats.Stats.nodes_entered + 1 in
  t.stats.Stats.nodes_entered <- n_entered;
  if n_entered land 31 = 0 then (
    match t.on_checkpoint with None -> () | Some f -> f n_entered);
  match t.tables with
  | None -> enter_generic t ~id ~tag ~is_text ~name ~txt ~off ~len
  | Some tb ->
    let depth = t.depth in
    enter_tables t tb ~id ~tag ~is_text ~name ~txt ~off ~len;
    if t.depth = depth then Dead
    else begin
      t.stats.Stats.nodes_alive <- t.stats.Stats.nodes_alive + 1;
      trace_mark t id Trace.Visited;
      Alive
    end

let enter_element t ~id ~tag name =
  enter_core t ~id ~tag ~is_text:false ~name ~txt:"" ~off:0 ~len:0

let enter_named t ~id name =
  let tag =
    match t.tables with
    | None -> Tables.unknown_tag
    | Some tb -> Tables.intern tb name
  in
  enter_element t ~id ~tag name

let enter_text t ~id txt off len =
  enter_core t ~id ~tag:Tables.text_tag ~is_text:true ~name:"" ~txt ~off ~len

let enter t ~id ~kind =
  match kind with
  | El name -> enter_named t ~id name
  | Tx content -> enter_text t ~id content 0 (String.length content)

(* --- bottom-up AFA settlement ---------------------------------------------- *)

let rec string_eq_at v backing off i n =
  i >= n
  || String.unsafe_get v i = String.unsafe_get backing (off + i)
     && string_eq_at v backing off (i + 1) n

let rec bytes_eq v b i n =
  i >= n
  || String.unsafe_get v i = Bytes.unsafe_get b i && bytes_eq v b (i + 1) n

(* Is [v] the node's value: a text node's content, or the concatenation
   of an element's immediate text children?  Compared in place. *)
let value_is frame v =
  let n = String.length v in
  if frame.is_text then
    n = frame.txt_len && string_eq_at v frame.txt frame.txt_off 0 n
  else n = frame.text_len && bytes_eq v frame.text 0 n

let rec any_value_is frame values i =
  i < Array.length values
  && (value_is frame (Array.unsafe_get values i) || any_value_is frame values (i + 1))

(* A qualifier not yet settled at this node reads as false: sound (sat
   never set prematurely), and the passes after its settlement catch any
   state that was waiting on it. *)
let rec checks_hold t = function
  | [] -> true
  | q :: rest -> t.qval_epoch.(q) = t.epoch && t.qvals.(q) && checks_hold t rest

let rec eps_sat frame = function
  | [] -> false
  | s' :: rest -> flag frame s' land f_sat <> 0 || eps_sat frame rest

(* sat(s) at a closing node: a run in state [s] here accepts within the
   (now complete) subtree — by accepting at this node, by an epsilon move
   whose checks hold here, or through a child (contributions pushed at the
   children's leaves).  Only active states matter: epsilon targets and
   check-spawned entry states of active states are active by closure. *)
let try_state t frame s =
  let f = flag frame s in
  f land f_sat = 0
  && checks_hold t t.nfa.Nfa.checks.(s)
  && (f land f_contrib <> 0
     || t.plain_accept.(s)
     || any_value_is frame t.value_accepts.(s) 0
     || eps_sat frame t.nfa.Nfa.eps.(s))

(* Passes run from the last-activated state back, so an epsilon chain
   (sources activate before their targets) settles in one pass. *)
let rec fixpoint t frame =
  let changed = ref false in
  for i = frame.n_active - 1 downto 0 do
    let s = Array.unsafe_get frame.active i in
    if try_state t frame s then begin
      set_flag frame s f_sat;
      changed := true
    end
  done;
  if !changed then begin
    frame.any_sat <- true;
    fixpoint t frame
  end

let rec eval_formula t frame = function
  | Afa.F_true -> true
  | Afa.F_atom aid ->
    flag frame (t.mfa.Mfa.atoms.(aid)).Afa.start land f_sat <> 0
  | Afa.F_not f -> not (eval_formula t frame f)
  | Afa.F_and (a, b) -> eval_formula t frame a && eval_formula t frame b
  | Afa.F_or (a, b) -> eval_formula t frame a || eval_formula t frame b

(* Record the value of a condition for Cans resolution. *)
let publish t c v =
  if c >= Bytes.length t.cond_val then begin
    let bigger = Bytes.make (max 256 (2 * Bytes.length t.cond_val)) '\000' in
    Bytes.blit t.cond_val 0 bigger 0 (Bytes.length t.cond_val);
    t.cond_val <- bigger
  end;
  Bytes.unsafe_set t.cond_val c (if v then '\002' else '\001')

let rec any_sat frame tg i =
  i < Array.length tg
  && (flag frame (Array.unsafe_get tg i) land f_sat <> 0 || any_sat frame tg (i + 1))

(* Contribute upward: parent-active states that can step into this node
   and accept inside it. *)
let contribute t frame parent =
  for i = 0 to parent.n_active - 1 do
    let s = Array.unsafe_get parent.active i in
    if
      flag parent s land f_contrib = 0
      &&
      match t.tables with
      | Some tb -> any_sat frame (Tables.targets tb s frame.tag) 0
      | None ->
        List.exists
          (fun (test, s') ->
            matches_node test ~is_text:frame.is_text ~name:frame.name
            && flag frame s' land f_sat <> 0)
          t.nfa.Nfa.delta.(s)
    then begin
      set_flag parent s f_contrib;
      parent.any_contrib <- true
    end
  done

(* Nothing can be satisfied at a frame where no active state accepts and
   no child contributed: its fixpoints are skipped (qualifiers then read
   their atoms as unsatisfied, which is what the passes would find). *)
let resolve_afa t frame =
  t.epoch <- t.epoch + 1;
  let live = frame.may_accept || frame.any_contrib in
  (* Settle in dependency order; each pass runs over all active states —
     strata are eps-closed inside the active set, and reruns are monotone
     no-ops. *)
  if frame.n_here > 0 then
    for k = 0 to Array.length t.qual_order - 1 do
      let q = t.qual_order.(k) in
      if qflag frame q land q_here <> 0 then begin
        if live then fixpoint t frame;
        t.qvals.(q) <- eval_formula t frame t.mfa.Mfa.quals.(q);
        t.qval_epoch.(q) <- t.epoch
      end
    done;
  if live then fixpoint t frame;
  (* Publish the values selection runs assumed at this node. *)
  for i = 0 to frame.n_req - 1 do
    publish t frame.req_cond.(i) t.qvals.(frame.requested.(i));
    t.stats.Stats.quals_resolved <- t.stats.Stats.quals_resolved + 1
  done;
  if frame.any_sat && t.depth >= 2 then contribute t frame t.frames.(t.depth - 2)

let leave t =
  if t.depth = 0 then raise (Driver_error "leave without enter");
  let frame = t.frames.(t.depth - 1) in
  if frame.n_active > 0 || frame.n_here > 0 then resolve_afa t frame;
  t.depth <- t.depth - 1

let entered_candidate t = t.entered_candidate

let rec exists_in p a n i =
  i < n && (p (Array.unsafe_get a i) || exists_in p a n (i + 1))

let rec exists_in_groups t p frame i =
  i < frame.n_groups
  && (let g = t.dfa.(frame.g_set.(i)).states in
      exists_in p g (Array.length g) 0 || exists_in_groups t p frame (i + 1))

let exists_live_state t p =
  if t.depth = 0 then
    raise (Driver_error "exists_live_state without a current node");
  let frame = t.frames.(t.depth - 1) in
  (match t.tables with
  | Some _ ->
    let set = t.dfa.(frame.set_id).states in
    exists_in p set (Array.length set) 0 || exists_in_groups t p frame 0
  | None -> List.exists (fun item -> p item.state) frame.items)
  || exists_in p frame.active frame.n_active 0

let may_accept_value_here t =
  if t.depth = 0 then
    raise (Driver_error "may_accept_value_here without a current node");
  (t.frames.(t.depth - 1)).may_accept_value

let finish_many t =
  if t.depth <> 0 then raise (Driver_error "finish with open nodes");
  if t.finished then raise (Driver_error "finish called twice");
  t.finished <- true;
  let value c =
    match if c < Bytes.length t.cond_val then Bytes.get t.cond_val c else '\000' with
    | '\002' -> true
    | '\001' -> false
    | _ -> raise (Driver_error (Printf.sprintf "unresolved condition %d" c))
  in
  (* one verdict per distinct condition set: '\001' false, '\002' true *)
  let verdicts = Bytes.make (Conds.count t.conds) '\000' in
  let holds c =
    match Bytes.get verdicts c with
    | '\002' -> true
    | '\001' -> false
    | _ ->
      let v = Conds.for_all t.conds c value in
      Bytes.set verdicts c (if v then '\002' else '\001');
      v
  in
  let per = Array.map (fun c -> Cans.resolve c ~holds) t.cans in
  t.stats.Stats.answers <-
    Array.fold_left (fun acc l -> acc + List.length l) 0 per;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Array.iter (List.iter (fun n -> Trace.mark tr n Trace.Answer)) per);
  per

let finish t =
  let per = finish_many t in
  if Array.length per = 1 then per.(0)
  else List.sort_uniq compare (List.concat (Array.to_list per))
