type cond = int
type set = int

(* A set is a chain of conditions in ascending order: id [c] stands for
   its greatest condition [last.(c)] on top of the set [parent.(c)].
   [child] hash-conses (parent, last) pairs in an open-addressing table,
   so every set has exactly one id and set equality is int equality.

   After [seal], only pairs built since then can be asked for again (the
   caller promises every later condition exceeds every earlier one, and a
   pair's [last] is the greatest condition of its set), so the table
   treats older ids as free slots and stays as small as one node's work.
   HyPE numbers conditions in visiting order and seals before each node's
   first condition. *)
type t = {
  mutable parent : int array;
  mutable last : int array;
  mutable n : int; (* ids in use; id 0 is the empty set *)
  mutable floor : int; (* ids below are sealed *)
  mutable slots : int array; (* ids; -1 or a sealed id is free *)
}

let empty = 0
let is_empty s = s = 0

let create () =
  { parent = Array.make 64 (-1); last = Array.make 64 (-1); n = 1; floor = 1;
    slots = Array.make 64 (-1) }

let count t = t.n
let seal t = t.floor <- t.n

let hash p x =
  let h = (p * 0x2c1b3c6d) lxor (x * 0x297a2d39) in
  h lxor (h lsr 17)

let rec probe t mask p x i =
  let id = Array.unsafe_get t.slots i in
  if id < t.floor then -1 - i
  else if t.parent.(id) = p && t.last.(id) = x then id
  else probe t mask p x ((i + 1) land mask)

(* Room for one more id: the id arrays double when full, the slots when
   the unsealed ids would fill half of them. *)
let reserve t =
  if t.n = Array.length t.parent then begin
    let extend a =
      let b = Array.make (2 * t.n) (-1) in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.parent <- extend t.parent;
    t.last <- extend t.last
  end;
  if 2 * (t.n + 1 - t.floor) > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) (-1) in
    let mask = Array.length slots - 1 in
    for id = t.floor to t.n - 1 do
      let rec place i =
        if slots.(i) < 0 then slots.(i) <- id else place ((i + 1) land mask)
      in
      place (hash t.parent.(id) t.last.(id) land mask)
    done;
    t.slots <- slots
  end

let child t p x =
  let mask = Array.length t.slots - 1 in
  let r = probe t mask p x (hash p x land mask) in
  if r >= 0 then r
  else begin
    reserve t;
    let mask = Array.length t.slots - 1 in
    let i = -1 - probe t mask p x (hash p x land mask) in
    let id = t.n in
    t.n <- id + 1;
    t.parent.(id) <- p;
    t.last.(id) <- x;
    t.slots.(i) <- id;
    id
  end

let rec add t c x =
  if c = 0 || x > t.last.(c) then child t c x
  else if x = t.last.(c) then c
  else
    let l = t.last.(c) in
    child t (add t t.parent.(c) x) l

let rec mem t c x = c <> 0 && t.last.(c) >= x && (t.last.(c) = x || mem t t.parent.(c) x)
let rec for_all t c f = c = 0 || (f t.last.(c) && for_all t t.parent.(c) f)
let rec union t a b = if b = 0 then a else union t (add t a t.last.(b)) t.parent.(b)

let to_list t c =
  let rec go acc c = if c = 0 then acc else go (t.last.(c) :: acc) t.parent.(c) in
  go [] c

let cardinal t c =
  let rec go k c = if c = 0 then k else go (k + 1) t.parent.(c) in
  go 0 c

let subset t a b = for_all t a (mem t b)

type dnf =
  | False
  | Unconditional
  | Sets of set list (* none empty, pairwise non-subsuming *)

let dnf_false = False
let dnf_is_false = function False -> true | Unconditional | Sets _ -> false

let dnf_is_unconditional = function
  | Unconditional -> true
  | False | Sets _ -> false

let dnf_add t dnf s =
  match dnf with
  | Unconditional -> Unconditional
  | False -> if is_empty s then Unconditional else Sets [ s ]
  | Sets sets ->
    if is_empty s then Unconditional
    else if List.exists (fun existing -> subset t existing s) sets then dnf
    else Sets (s :: List.filter (fun existing -> not (subset t s existing)) sets)

let dnf_sets = function False | Unconditional -> [] | Sets sets -> sets

let dnf_eval t dnf valuation =
  match dnf with
  | False -> false
  | Unconditional -> true
  | Sets sets -> List.exists (fun s -> for_all t s valuation) sets

let dnf_size = function False | Unconditional -> 0 | Sets sets -> List.length sets

let pp_set t ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma (fun ppf c -> Fmt.pf ppf "c%d" c)) (to_list t s)

let pp_dnf t ppf = function
  | False -> Fmt.string ppf "false"
  | Unconditional -> Fmt.string ppf "true"
  | Sets sets -> Fmt.pf ppf "%a" Fmt.(list ~sep:(any " or ") (pp_set t)) sets
