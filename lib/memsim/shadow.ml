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

(* [last_idx]/[last_page] cache the page of the previous access: the
   taint planners read and write a few bytes around the same stack or
   buffer address per instruction, so most accesses skip the [Hashtbl]
   probe (and its [Some] box).  A page with no labels yet is cached as
   [absent], shared and never written: [get] reads zeros from it and
   [set] takes the slow path. *)
type t = {
  pages : (int, int array) Hashtbl.t;
  mutable last_idx : int;
  mutable last_page : int array;
}

let absent = Array.make Memory.page_size 0
let create () = { pages = Hashtbl.create 64; last_idx = -1; last_page = absent }

let page_of addr = addr lsr Memory.page_bits
let offset_in_page addr = addr land (Memory.page_size - 1)

let page t idx =
  if idx = t.last_idx then t.last_page
  else begin
    let p = match Hashtbl.find_opt t.pages idx with Some p -> p | None -> absent in
    t.last_idx <- idx;
    t.last_page <- p;
    p
  end

let get t addr = Array.unsafe_get (page t (page_of addr)) (offset_in_page addr)

let set t addr label =
  let idx = page_of addr in
  let p = page t idx in
  if p != absent then Array.unsafe_set p (offset_in_page addr) label
  else if label <> 0 then begin
    let p = Array.make Memory.page_size 0 in
    p.(offset_in_page addr) <- label;
    Hashtbl.replace t.pages idx p;
    t.last_page <- p
  end

let clear_range t addr ~len =
  for i = 0 to len - 1 do
    set t (Word.add addr i) 0
  done

(* Zeroed in place: a daemon clears its oracle once per datagram and
   taints the same few pages again, so keeping the arrays saves two
   32 KB allocations per sanitized parse. *)
let clear t = Hashtbl.iter (fun _ p -> Array.fill p 0 Memory.page_size 0) t.pages

(* Snapshots deep-copy the sparse page set.  Shadow pages are few (only
   pages that ever carried taint) and restore is exact: pages created
   after the snapshot are dropped, not just zeroed. *)
type snapshot = (int * int array) list  (* sorted by page index *)

let snapshot t =
  let pages =
    Hashtbl.fold (fun idx page acc -> (idx, Array.copy page) :: acc) t.pages []
  in
  List.sort (fun (a, _) (b, _) -> compare a b) pages

let restore t snap =
  Hashtbl.reset t.pages;
  t.last_idx <- -1;
  t.last_page <- absent;
  List.iter (fun (idx, page) -> Hashtbl.replace t.pages idx (Array.copy page)) snap

let tainted t =
  Hashtbl.fold
    (fun _ page acc ->
      Array.fold_left (fun n l -> if l <> 0 then n + 1 else n) acc page)
    t.pages 0
