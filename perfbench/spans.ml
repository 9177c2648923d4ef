(* In-memory span recorder for the traced run.

   A span is one call the benchmark made into a layer's public function:
   its name, start and end in monotonic nanoseconds, the span that caused
   it and the op it belongs to, plus the minor words the call allocated
   and any counts read off its result.  Spans are kept in memory while
   the run is timed and written out as JSON lines once it ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** [-1] for an op's root span *)
  op : int;
  name : string;
  start_ns : int;
  end_ns : int;
  minor_words : float;
  counts : (string * int) list;
}

type t = {
  mutable spans : span list;  (** most recent first *)
  mutable next_id : int;
  mutable current : int;  (** innermost open span, [-1] outside any *)
  mutable op : int;
}

let create () = { spans = []; next_id = 0; current = -1; op = -1 }

let duration s = s.end_ns - s.start_ns

(* Run [f] inside a span named [name], a child of the innermost open one.
   [counts] reads layer counters off the result once the clock stopped. *)
let span r ?(counts = fun _ -> []) name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = r.current in
  r.current <- id;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let close () =
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    r.current <- parent;
    (t1, w1 -. w0)
  in
  match f () with
  | v ->
    let t1, words = close () in
    r.spans <-
      { id; parent; op = r.op; name; start_ns = t0; end_ns = t1;
        minor_words = words; counts = counts v }
      :: r.spans;
    v
  | exception e ->
    let t1, words = close () in
    r.spans <-
      { id; parent; op = r.op; name; start_ns = t0; end_ns = t1;
        minor_words = words; counts = [] }
      :: r.spans;
    raise e

(* One op: a root span named [name] under a fresh op id. *)
let op r name f =
  r.op <- r.op + 1;
  span r name f

let spans r = List.rev r.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its interval
   that the union of its children's intervals covers. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.end_ns)
           :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s - covered ~lo:s.start_ns ~hi:s.end_ns kids))
    spans

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"start_ns\":%d,\
     \"end_ns\":%d,\"minor_words\":%.0f,\"counts\":{%s}}"
    s.id s.parent s.op (escape s.name) s.start_ns s.end_ns s.minor_words
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (escape k) v)
          s.counts))

let write path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (fun s -> output_string oc (to_json s); output_char oc '\n')
        spans)
