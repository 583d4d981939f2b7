(* Per-pc counts in an open-addressed table: two parallel int arrays
   (pc, count) with linear probing, kept at most half full.  [record]
   runs once per retired instruction, so its hit path is a multiply, a
   shift, an int compare and an increment, and it allocates nothing; a
   polymorphic [Hashtbl] probe there cost more than the instruction it
   counted.  Fibonacci hashing (the top bits of [pc * golden]) spreads
   pcs that differ only in their low bits — consecutive instructions,
   4-aligned ARM words — over the whole table. *)

let empty = min_int (* key of an unused slot; pcs are non-negative *)
let golden = 0x4F1BBCDCBFA53C01 (* 2^63 / phi, odd; the literal wraps *)
let initial_bits = 10

type t = {
  mutable keys : int array;  (* pc, or [empty] *)
  mutable counts : int array;  (* samples of the slot's pc *)
  mutable shift : int;  (* 63 - log2 (capacity) *)
  mutable used : int;  (* distinct pcs *)
  mutable total : int;
  mutable sink : (int -> unit) option;
}

let create () =
  let n = 1 lsl initial_bits in
  {
    keys = Array.make n empty;
    counts = Array.make n 0;
    shift = 63 - initial_bits;
    used = 0;
    total = 0;
    sink = None;
  }

let set_sink t sink = t.sink <- sink

(* The slot holding [pc], or the empty slot where it belongs. *)
let rec slot keys mask pc i =
  let k = Array.unsafe_get keys i in
  if k = pc || k = empty then i else slot keys mask pc ((i + 1) land mask)

let home t pc = (pc * golden) lsr t.shift

let grow t =
  let keys = t.keys and counts = t.counts in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n empty;
  t.counts <- Array.make n 0;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i pc ->
      if pc <> empty then begin
        let j = slot t.keys (n - 1) pc (home t pc) in
        t.keys.(j) <- pc;
        t.counts.(j) <- counts.(i)
      end)
    keys

let record t pc =
  let keys = t.keys in
  let i = slot keys (Array.length keys - 1) pc (home t pc) in
  if Array.unsafe_get keys i = pc then
    Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1)
  else begin
    keys.(i) <- pc;
    t.counts.(i) <- 1;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length keys then grow t
  end;
  t.total <- t.total + 1;
  match t.sink with None -> () | Some f -> f pc

let total t = t.total
let distinct_pcs t = t.used

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.used <- 0;
  t.total <- 0

(* "parse_response+0x4c" and "parse_response+0x50" both bucket under
   "parse_response"; bare hex addresses stay as-is. *)
let base_symbol s =
  match String.index_opt s '+' with
  | Some i -> String.sub s 0 i
  | None -> s

let report t ~symbolize =
  let by_sym = Hashtbl.create 64 in
  Array.iteri
    (fun i pc ->
      if pc <> empty then begin
        let n = t.counts.(i) in
        let sym = base_symbol (symbolize pc) in
        match Hashtbl.find_opt by_sym sym with
        | Some r -> r := !r + n
        | None -> Hashtbl.add by_sym sym (ref n)
      end)
    t.keys;
  let rows = Hashtbl.fold (fun sym n acc -> (sym, !n) :: acc) by_sym [] in
  List.sort
    (fun (sa, na) (sb, nb) ->
      if na <> nb then compare nb na else compare sa sb)
    rows

let folded t ~symbolize ?(root = "all") () =
  let b = Buffer.create 256 in
  List.iter
    (fun (sym, n) -> Buffer.add_string b (Printf.sprintf "%s;%s %d\n" root sym n))
    (report t ~symbolize);
  Buffer.contents b

let pp_flat ?top ~symbolize ppf t =
  let rows = report t ~symbolize in
  let rows =
    match top with
    | Some n -> List.filteri (fun i _ -> i < n) rows
    | None -> rows
  in
  let tot = float_of_int (max t.total 1) in
  Format.fprintf ppf "%10s  %6s  %s@." "insns" "%" "symbol";
  List.iter
    (fun (sym, n) ->
      Format.fprintf ppf "%10d  %5.1f%%  %s@." n
        (100.0 *. float_of_int n /. tot)
        sym)
    rows;
  Format.fprintf ppf "%10d  total (%d distinct pcs)@." t.total t.used
