type label = int

let clean = 0

let make ~src ~offset =
  if offset < 0 || offset > 0xFFFE then
    invalid_arg (Printf.sprintf "Shadow.make: offset %d out of range" offset);
  if src < 0 then invalid_arg (Printf.sprintf "Shadow.make: negative src %d" src);
  (src lsl 16) lor (offset + 1)

let source_of label = label lsr 16
let offset_of label = (label land 0xFFFF) - 1
let join a b = if a <> 0 then a else b

(* One page of labels and its dirty range: every non-zero label of the
   page lies in [lo, hi], and [lo > hi] means the page is clean. *)
type page = { idx : int; labels : int array; mutable lo : int; mutable hi : int }

let fresh idx = { idx; labels = Array.make Memory.page_size 0; lo = Memory.page_size; hi = -1 }

(* What a page with no labels yet reads as: shared, never written, and
   cached like any page so reads of untouched memory stay off the table
   too.  [set] replaces it when the first label lands. *)
let absent = fresh (-1)

(* [keys]/[cached] are a 4-entry, fully associative cache of the pages
   accessed last, filled round-robin: the taint planners alternate
   between the receive buffer's page and one or two stack pages, and a
   hit costs a few int compares — no hashing, no [Some] box.  [dirty]
   lists the pages whose range is non-empty (the first [n_dirty]), which
   is all [clear] has to visit. *)
type t = {
  pages : (int, page) Hashtbl.t;
  keys : int array;
  cached : page array;
  mutable victim : int;
  mutable dirty : page array;
  mutable n_dirty : int;
}

let ways = 4

let create () =
  {
    pages = Hashtbl.create 64;
    keys = Array.make ways (-1);
    cached = Array.make ways absent;
    victim = 0;
    dirty = Array.make 8 absent;
    n_dirty = 0;
  }

let page_of addr = addr lsr Memory.page_bits
let offset_in_page addr = addr land (Memory.page_size - 1)

let miss t idx =
  let p = match Hashtbl.find t.pages idx with p -> p | exception Not_found -> absent in
  let v = t.victim in
  t.keys.(v) <- idx;
  t.cached.(v) <- p;
  t.victim <- (v + 1) land (ways - 1);
  p

let page t idx =
  let k = t.keys in
  if Array.unsafe_get k 0 = idx then Array.unsafe_get t.cached 0
  else if Array.unsafe_get k 1 = idx then Array.unsafe_get t.cached 1
  else if Array.unsafe_get k 2 = idx then Array.unsafe_get t.cached 2
  else if Array.unsafe_get k 3 = idx then Array.unsafe_get t.cached 3
  else miss t idx

let get t addr = Array.unsafe_get (page t (page_of addr)).labels (offset_in_page addr)

(* [join] of four bytes, read off one page unless they straddle two. *)
let get32 t addr =
  let off = offset_in_page addr in
  if off <= Memory.page_size - 4 then begin
    let l = (page t (page_of addr)).labels in
    let l0 = Array.unsafe_get l off in
    if l0 <> 0 then l0
    else
      let l1 = Array.unsafe_get l (off + 1) in
      if l1 <> 0 then l1
      else
        let l2 = Array.unsafe_get l (off + 2) in
        if l2 <> 0 then l2 else Array.unsafe_get l (off + 3)
  end
  else
    join (get t addr)
      (join (get t (Word.add addr 1)) (join (get t (Word.add addr 2)) (get t (Word.add addr 3))))

(* Widen [p]'s dirty range to cover [off]; a page that was clean joins
   [dirty] (which only grows the first few times). *)
let mark t p off =
  if p.lo > p.hi then begin
    p.lo <- off;
    p.hi <- off;
    if t.n_dirty = Array.length t.dirty then begin
      let d = Array.make (2 * t.n_dirty) absent in
      Array.blit t.dirty 0 d 0 t.n_dirty;
      t.dirty <- d
    end;
    t.dirty.(t.n_dirty) <- p;
    t.n_dirty <- t.n_dirty + 1
  end
  else if off < p.lo then p.lo <- off
  else if off > p.hi then p.hi <- off

(* The first label on a page: the page is created and replaces [absent]
   in the cache entry [page] just bound to it. *)
let create_page t idx =
  let p = fresh idx in
  Hashtbl.replace t.pages idx p;
  for i = 0 to ways - 1 do
    if t.keys.(i) = idx then t.cached.(i) <- p
  done;
  p

let set t addr label =
  let idx = page_of addr and off = offset_in_page addr in
  let p = page t idx in
  if p != absent then begin
    Array.unsafe_set p.labels off label;
    if label <> 0 then mark t p off
  end
  else if label <> 0 then begin
    let p = create_page t idx in
    p.labels.(off) <- label;
    mark t p off
  end

let fill t addr ~len label =
  for i = 0 to len - 1 do
    set t (Word.add addr i) label
  done

let clear_range t addr ~len = fill t addr ~len 0

(* Zeroed in place and only over the dirty ranges: a daemon clears its
   oracle once per datagram and taints a few hundred bytes of the same
   few pages again, so this keeps their arrays and touches only what the
   last parse tainted. *)
let clear t =
  for i = 0 to t.n_dirty - 1 do
    let p = t.dirty.(i) in
    Array.fill p.labels p.lo (p.hi - p.lo + 1) 0;
    p.lo <- Memory.page_size;
    p.hi <- -1
  done;
  t.n_dirty <- 0

let tainted t =
  let n = ref 0 in
  for i = 0 to t.n_dirty - 1 do
    let p = t.dirty.(i) in
    for off = p.lo to p.hi do
      if Array.unsafe_get p.labels off <> 0 then incr n
    done
  done;
  !n

(* A snapshot copies each dirty range (page, lo, labels of [lo, hi]).
   Restore is exact: pages created after the snapshot are dropped, not
   just zeroed. *)
type snapshot = (int * int * int array) list

let snapshot t =
  List.init t.n_dirty (fun i ->
      let p = t.dirty.(i) in
      (p.idx, p.lo, Array.sub p.labels p.lo (p.hi - p.lo + 1)))

let restore t snap =
  Hashtbl.reset t.pages;
  Array.fill t.keys 0 ways (-1);
  Array.fill t.cached 0 ways absent;
  t.victim <- 0;
  t.n_dirty <- 0;
  List.iter
    (fun (idx, lo, labels) ->
      let p = create_page t idx in
      Array.blit labels 0 p.labels lo (Array.length labels);
      mark t p lo;
      mark t p (lo + Array.length labels - 1))
    snap
