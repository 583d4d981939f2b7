(* Decoded-instruction cache keyed by (page, offset), invalidated by
   {!Memory}'s per-page write-generation counters.

   Decoding is the interpreter's hot path: the x86 decoder pulls bytes one
   at a time through closures and allocates an instruction record per
   step; the ARM decoder refetches and re-cracks the same word every time
   a loop body comes around.  Both interpreters execute overwhelmingly
   out of a handful of text pages, so caching the decoded form per
   address and validating it with a couple of integer compares removes
   the whole decode cost.

   The cache has two halves.  The decode [table] (page index -> slot
   array) outlives any one run: a process keeps it across calls, and its
   copy-on-write forks share it.  A handle ([t]) binds the table to one
   memory for one run and carries the per-run state: the last page's
   slots, that page's generation cell, and the hit/miss counters.

   Correctness under self-modifying code (shellcode written to an rwx
   stack and then executed, the paper's §III-A) and under sharing comes
   entirely from the generation protocol: within a lineage, a
   (page, generation) pair names one immutable content and permission
   ({!Memory.page_gen}).  An entry records the generation it was filled
   under and hits iff the *current* memory's page still carries that
   value, whichever memory of the lineage filled it.  The handle binds
   the current page's cell when a lookup moves to a new page and rebinds
   it on a miss, so validation is a load + compare with no call back
   into {!Memory}.  An x86 instruction may straddle a page boundary, so
   an entry records the generation of the page holding its last byte
   too; non-straddling entries store [-1] there and skip the second
   probe.

   The slot arrays hold a [dummy] entry rather than [option]s: its
   generation is one no cell ever holds, so it can never validate.  This
   keeps the hit path free of [Some] boxes — it runs once per
   interpreted instruction. *)

type 'a entry = {
  v : 'a;
  len : int;
  gen : int;  (* generation of the first byte's page at fill time *)
  hi_gen : int;  (* last byte's page; [-1] unless straddling *)
}

type 'a table = {
  lineage : Memory.lineage;
  dummy : 'a entry;
  pages : (int, 'a entry array) Hashtbl.t;
  (* Bound by a handle whose page is unmapped: read, never written. *)
  unmapped : 'a entry array;
}

type 'a t = {
  mem : Memory.t;
  table : 'a table;
  mutable last_idx : int;
  mutable last_slots : 'a entry array;
  mutable cell : int ref;
  mutable hits : int;
  mutable misses : int;
}

(* Live generations are positive and retired cells hold positive values
   no page carries any more; the dead cell holds [-1] and the dummy
   [min_int], so neither ever validates. *)
let dead_cell = ref (-1)

let table ~dummy mem =
  let dummy = { v = dummy; len = 1; gen = min_int; hi_gen = -1 } in
  {
    lineage = Memory.lineage mem;
    dummy;
    pages = Hashtbl.create 16;
    unmapped = Array.make Memory.page_size dummy;
  }

let attach table mem =
  if Memory.lineage mem != table.lineage then
    invalid_arg "Icache.attach: memory is not of the table's lineage";
  {
    mem;
    table;
    last_idx = -1;
    last_slots = table.unmapped;
    cell = dead_cell;
    hits = 0;
    misses = 0;
  }

let create ~dummy mem = attach (table ~dummy mem) mem
let hits t = t.hits
let misses t = t.misses

let clear t =
  Hashtbl.reset t.table.pages;
  t.last_idx <- -1;
  t.last_slots <- t.table.unmapped;
  t.cell <- dead_cell

(* Bind the page of [addr]: its slot array (made on first use) and its
   generation cell.  An unmapped page gets the read-only [unmapped] slots
   and the dead cell, so a jump into unmapped memory allocates nothing
   and the fetch below faults. *)
let bind t addr idx =
  (match Memory.gen_ref t.mem addr with
  | cell ->
      t.cell <- cell;
      t.last_slots <-
        (match Hashtbl.find_opt t.table.pages idx with
        | Some s -> s
        | None ->
            let s = Array.make Memory.page_size t.table.dummy in
            Hashtbl.add t.table.pages idx s;
            s)
  | exception Memory.Fault _ ->
      t.cell <- dead_cell;
      t.last_slots <- t.table.unmapped);
  t.last_idx <- idx

let[@inline never] fill t addr idx off ~decode =
  (* Miss or stale.  [decode] fetches through the memory's execute
     permission check, so nothing is ever cached from a page that was
     not executable at decode time — and a later [set_perm] bumps the
     generation, forcing this path (and its NX check) to run again. *)
  let v, len = decode t.mem addr in
  t.misses <- t.misses + 1;
  (* The decode succeeded, so the page is mapped now: rebind in case the
     bound cell or slots were stale (remapped, or bound while unmapped). *)
  bind t addr idx;
  let hi_gen =
    if off + len <= Memory.page_size then -1
    else Memory.page_gen t.mem (addr + len - 1)
  in
  let e = { v; len; gen = !(t.cell); hi_gen } in
  Array.unsafe_set t.last_slots off e;
  e

let lookup t addr ~decode =
  let addr = Word.of_int addr in
  let idx = addr lsr Memory.page_bits in
  if idx <> t.last_idx then bind t addr idx;
  let off = addr land (Memory.page_size - 1) in
  let e = Array.unsafe_get t.last_slots off in
  if
    e.gen = !(t.cell)
    && (e.hi_gen < 0 || Memory.page_gen t.mem (addr + e.len - 1) = e.hi_gen)
  then begin
    t.hits <- t.hits + 1;
    e
  end
  else fill t addr idx off ~decode
