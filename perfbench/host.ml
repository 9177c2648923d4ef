(* How fast the host runs right now.

   The shared host this benchmark was written on slows allocation-heavy
   code by up to 2x for minutes at a time, while the work the engine does
   stays the same (alloc_kb_per_op repeats within 2% between runs).  A
   probe times a fixed piece of work, short-lived allocation in the minor
   heap as the engine's is, written with the standard library only so that
   no change to the repository can change it.  Between blocks of about a
   second of the timed loop, and around every set-up, the benchmark takes
   a probe; each time measured in a block is then scaled to a host on
   which a probe takes [nominal_ns]. *)

let nominal_ns = 2_000_000

(* About 9.6 MB allocated in lists of 1000 pairs, each dropped at once. *)
let work () =
  let n = ref 0 in
  for _ = 1 to 200 do
    n := !n + List.length (Sys.opaque_identity (List.init 1000 (fun i -> (i, i))))
  done;
  !n

(* The median of three timings of [work], in ns. *)
let probe () =
  let once () =
    let t0 = Spans.now_ns () in
    ignore (Sys.opaque_identity (work ()));
    Spans.now_ns () - t0
  in
  let a = once () and b = once () and c = once () in
  max (min a b) (min (max a b) c)

(* [dt] ns measured between probes [before] and [after], as it would read
   on the nominal host. *)
let scale ~before ~after dt =
  float_of_int dt *. 2. *. float_of_int nominal_ns /. float_of_int (before + after)

(* Scale the op times [dts], in the order the ops ran, by the probes taken
   between them: [marks] lists (ops done so far, probe ns) in order, from
   (0, p) before the first op to (List.length dts, p') after the last. *)
let scale_ops marks dts =
  let rec go i marks dts acc =
    match marks, dts with
    | _, [] -> List.rev acc
    | (_, before) :: ((n, after) :: _ as rest), dt :: dts ->
      if i < n then go (i + 1) marks dts (scale ~before ~after dt :: acc)
      else go i rest (dt :: dts) acc
    | _ -> invalid_arg "Host.scale_ops: ops past the last mark"
  in
  go 0 marks dts []
