type perm = { read : bool; write : bool; execute : bool }

let r = { read = true; write = false; execute = false }
let rw = { read = true; write = true; execute = false }
let rx = { read = true; write = false; execute = true }
let rwx = { read = true; write = true; execute = true }
let none = { read = false; write = false; execute = false }

let pp_perm ppf p =
  Format.fprintf ppf "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.execute then 'x' else '-')

type fault_kind = Unmapped | Perm_read | Perm_write | Perm_exec
type fault = { addr : int; kind : fault_kind; context : string }

exception Fault of fault

let fault_kind_to_string = function
  | Unmapped -> "unmapped"
  | Perm_read -> "read-protected"
  | Perm_write -> "write-protected"
  | Perm_exec -> "exec-protected (NX)"

let pp_fault ppf f =
  Format.fprintf ppf "memory fault at %a: %s (%s)" Word.pp f.addr
    (fault_kind_to_string f.kind)
    f.context

let fault_to_string f = Format.asprintf "%a" pp_fault f

type region = { name : string; base : int; size : int; perm : perm }

(* [gen] is the page's write generation.  Every mutation of the page's
   bytes — and every permission change — stores a fresh value drawn from
   the lineage's monotonic counter (see [lineage] below), so a generation
   value is never reused across page lifetimes or writes, and a
   (page index, generation) pair names one immutable content and
   permission.  Decoded-instruction caches ({!Icache}) validate against
   it.

   The generation lives in a heap cell ([int ref]) rather than a mutable
   field so {!gen_ref} can hand the cell itself to a decode cache: entry
   validation is then a direct load + compare with no call back into this
   module — it runs once per interpreted instruction.

   [frozen] is the copy-on-write bit: while set, [data] may be shared
   with one or more {!snapshot} frames and must not be mutated in place.
   Every byte-store path calls {!unshare} first, which swaps in a private
   copy of the buffer and clears the bit.  The invariant the snapshot
   layer relies on: a [Bytes.t] reachable from a snapshot frame is never
   written again.  The same bit lets every freshly mapped page start on
   the one shared [zero_page], so a mapping allocates only the pages
   that are later written.  A page that is not [frozen] owns its buffer,
   which {!restore} may therefore rewrite in place. *)
type page = {
  mutable pperm : perm;
  mutable data : Bytes.t;
  gen : int ref;
  mutable frozen : bool;
}

let page_size = 4096
let page_bits = 12
let offset_mask = page_size - 1

(* Never written: every page that carries it is [frozen], so the first
   store copies it away. *)
let zero_page = Bytes.make page_size '\000'

(* The generation counter of one address space and every memory forked
   from it.  Sharing it is what makes a generation value unique across
   the lineage, so forks can keep their frames' generations and decode
   caches can be shared between them.  All forks of a lineage run on one
   domain; the counter would have to become atomic before they ran on
   several. *)
type lineage = { mutable last_gen : int }

(* One page of a snapshot (see the snapshot section below). *)
type frame = {
  f_idx : int;
  f_page : page;  (* identity of the record frozen at snapshot time *)
  f_data : Bytes.t;
  f_perm : perm;
  f_gen : int;
}

type t = {
  pages : (int, page) Hashtbl.t;
  mutable regs : region list;
  lineage : lineage;
  (* Last-hit page per access kind: the interpreters touch the same text /
     stack / data page over and over, so a single-entry cache turns the
     per-byte Hashtbl probe into an int compare + field load.  [gq_*] backs
     {!page_gen} (the decode-cache validation path).  Invalidated on
     [unmap]. *)
  mutable rd_idx : int;
  mutable rd_pg : page;
  mutable wr_idx : int;
  mutable wr_pg : page;
  mutable fx_idx : int;
  mutable fx_pg : page;
  mutable gq_idx : int;
  mutable gq_pg : page;
  (* Telemetry sink, [None] in normal operation.  Faults and mapping
     changes are cold paths, so the option check never touches the
     per-byte accessors' hit paths. *)
  mutable trace : Telemetry.Trace.t option;
  (* The frames the last {!restore} installed, and the lineage counter
     when it finished: every page whose generation is still at most
     [restored_upto] carries those frames' bytes and permission. *)
  mutable restored : frame array;
  mutable restored_upto : int;
}

let null_page = { pperm = none; data = Bytes.empty; gen = ref 0; frozen = false }

(* Cold path of the copy-on-write protocol: give the page a private copy
   of its buffer before the first mutation after a snapshot.  Kept
   out-of-line so the store hot paths pay only the [frozen] test. *)
let[@inline never] unshare p =
  p.data <- Bytes.copy p.data;
  p.frozen <- false

let with_lineage lineage =
  {
    pages = Hashtbl.create 64;
    regs = [];
    lineage;
    rd_idx = -1;
    rd_pg = null_page;
    wr_idx = -1;
    wr_pg = null_page;
    fx_idx = -1;
    fx_pg = null_page;
    gq_idx = -1;
    gq_pg = null_page;
    trace = None;
    restored = [||];
    restored_upto = 0;
  }

let create () = with_lineage { last_gen = 0 }
let lineage t = t.lineage

let set_trace t tr = t.trace <- tr
let trace t = t.trace

let page_index addr = addr lsr page_bits

let fault t addr kind context =
  (match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" "fault"
        ~args:
          [
            ("addr", Telemetry.Trace.I addr);
            ("kind", Telemetry.Trace.S (fault_kind_to_string kind));
            ("context", Telemetry.Trace.S context);
          ]);
  raise (Fault { addr; kind; context })

let fresh_gen t =
  let l = t.lineage in
  l.last_gen <- l.last_gen + 1;
  l.last_gen

let invalidate_page_caches t =
  t.rd_idx <- -1;
  t.rd_pg <- null_page;
  t.wr_idx <- -1;
  t.wr_pg <- null_page;
  t.fx_idx <- -1;
  t.fx_pg <- null_page;
  t.gq_idx <- -1;
  t.gq_pg <- null_page

let page_range ~base ~size =
  let first = page_index base and last = page_index (base + size - 1) in
  (first, last)

let trace_region t name reg =
  match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" name
        ~args:
          [
            ("name", Telemetry.Trace.S reg.name);
            ("base", Telemetry.Trace.I reg.base);
            ("size", Telemetry.Trace.I reg.size);
            ("perm", Telemetry.Trace.S (Format.asprintf "%a" pp_perm reg.perm));
          ]

let map t ~base ~size ~perm ~name =
  if size <= 0 then invalid_arg "Memory.map: size must be positive";
  if base < 0 || base + size > 0x1_0000_0000 then
    invalid_arg "Memory.map: region outside 32-bit address space";
  let first, last = page_range ~base ~size in
  for i = first to last do
    if Hashtbl.mem t.pages i then
      invalid_arg
        (Printf.sprintf "Memory.map: %s overlaps existing mapping at page %s"
           name
           (Word.to_hex (i lsl page_bits)))
  done;
  for i = first to last do
    Hashtbl.replace t.pages i
      { pperm = perm; data = zero_page; gen = ref (fresh_gen t); frozen = true }
  done;
  let reg = { name; base; size; perm } in
  t.regs <- reg :: t.regs;
  trace_region t "map" reg

let region_at_base t base context =
  match List.find_opt (fun reg -> reg.base = base) t.regs with
  | Some reg -> reg
  | None ->
      invalid_arg
        (Printf.sprintf "Memory.%s: no region mapped at %s" context
           (Word.to_hex base))

let unmap t ~base =
  let reg = region_at_base t base "unmap" in
  let first, last = page_range ~base ~size:reg.size in
  for i = first to last do
    (match Hashtbl.find_opt t.pages i with
    (* Retire the page's generation so any decode-cache entry filled from
       it can never validate again, even if the page object leaks through
       a stale reference. *)
    | Some p -> p.gen := fresh_gen t
    | None -> ());
    Hashtbl.remove t.pages i
  done;
  t.regs <- List.filter (fun reg -> reg.base <> base) t.regs;
  invalidate_page_caches t;
  trace_region t "unmap" reg

let set_perm t ~base perm =
  let reg = region_at_base t base "set_perm" in
  let first, last = page_range ~base ~size:reg.size in
  for i = first to last do
    match Hashtbl.find_opt t.pages i with
    | Some p ->
        p.pperm <- perm;
        (* Permission changes must also invalidate decode caches: a cached
           instruction was admitted under the old execute bit. *)
        p.gen := fresh_gen t
    | None -> ()
  done;
  t.regs <-
    List.map
      (fun r0 -> if r0.base = base then { r0 with perm } else r0)
      t.regs;
  trace_region t "set_perm" { reg with perm }

let regions t = List.sort (fun a b -> compare a.base b.base) t.regs

let region_at t addr =
  List.find_opt (fun reg -> addr >= reg.base && addr < reg.base + reg.size) t.regs

let find_region t name =
  match List.find_opt (fun reg -> reg.name = name) t.regs with
  | Some reg -> reg
  | None -> invalid_arg ("Memory.find_region: no region named " ^ name)

let is_mapped t addr = Hashtbl.mem t.pages (page_index addr)

(* Core byte access.  Each access kind keeps a one-entry cache of the last
   page it hit; the [context] string ends up in the fault record for
   diagnostics.  [addr] must already be masked to 32 bits. *)

let read_page t addr =
  let idx = addr lsr page_bits in
  if idx = t.rd_idx then t.rd_pg
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        t.rd_idx <- idx;
        t.rd_pg <- p;
        p
    | None -> fault t addr Unmapped "read"

let write_page t addr context =
  let idx = addr lsr page_bits in
  if idx = t.wr_idx then t.wr_pg
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        t.wr_idx <- idx;
        t.wr_pg <- p;
        p
    | None -> fault t addr Unmapped context

let fetch_page t addr =
  let idx = addr lsr page_bits in
  if idx = t.fx_idx then t.fx_pg
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        t.fx_idx <- idx;
        t.fx_pg <- p;
        p
    | None -> fault t addr Unmapped "fetch"

let page_gen t addr =
  let addr = Word.of_int addr in
  let idx = addr lsr page_bits in
  if idx = t.gq_idx then !(t.gq_pg.gen)
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        t.gq_idx <- idx;
        t.gq_pg <- p;
        !(p.gen)
    | None -> -1

(* The page's generation cell itself, for decode caches to validate
   against without a call: [map] creates a fresh cell per page and
   [unmap] retires the old cell's value, so a cache still bound to the
   old cell after a remap can never find a live generation in it. *)
let gen_ref t addr =
  let addr = Word.of_int addr in
  let idx = addr lsr page_bits in
  if idx = t.gq_idx then t.gq_pg.gen
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        t.gq_idx <- idx;
        t.gq_pg <- p;
        p.gen
    | None -> fault t addr Unmapped "gen_ref"

let read_u8 t addr =
  let addr = Word.of_int addr in
  let p = read_page t addr in
  if not p.pperm.read then fault t addr Perm_read "read";
  Char.code (Bytes.unsafe_get p.data (addr land offset_mask))

let write_u8 t addr v =
  let addr = Word.of_int addr in
  let p = write_page t addr "write" in
  if not p.pperm.write then fault t addr Perm_write "write";
  if p.frozen then unshare p;
  p.gen := fresh_gen t;
  Bytes.unsafe_set p.data (addr land offset_mask) (Char.unsafe_chr (v land 0xFF))

let fetch_u8 t addr =
  let addr = Word.of_int addr in
  let p = fetch_page t addr in
  if not p.pperm.execute then fault t addr Perm_exec "fetch";
  Char.code (Bytes.unsafe_get p.data (addr land offset_mask))

(* Multi-byte reads bind bytes in ascending order: the lowest offending
   address must be the one reported in a fault.  The aligned-within-a-page
   common case reads straight out of the page buffer. *)

let read_u16 t addr =
  let b0 = read_u8 t addr in
  let b1 = read_u8 t (addr + 1) in
  b0 lor (b1 lsl 8)

let read_u32 t addr =
  let a = Word.of_int addr in
  let off = a land offset_mask in
  if off <= page_size - 4 then begin
    let p = read_page t a in
    if not p.pperm.read then fault t a Perm_read "read";
    let d = p.data in
    Char.code (Bytes.unsafe_get d off)
    lor (Char.code (Bytes.unsafe_get d (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get d (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get d (off + 3)) lsl 24)
  end
  else begin
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    let b2 = read_u8 t (addr + 2) in
    let b3 = read_u8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

(* Multi-byte writes are not torn: every page the span touches is
   validated (mapped + writable) before any byte is committed, so a write
   that faults leaves memory untouched.  Validation walks the span in
   ascending order, one probe per page, which also makes the reported
   fault address the lowest offending one (the first byte of the span
   that lands in the bad page). *)
let check_write_span t addr len context =
  let i = ref 0 in
  while !i < len do
    let a = Word.of_int (addr + !i) in
    let idx = a lsr page_bits in
    (if idx = t.wr_idx then begin
       if not t.wr_pg.pperm.write then fault t a Perm_write context
     end
     else
       match Hashtbl.find_opt t.pages idx with
       | Some p ->
           if not p.pperm.write then fault t a Perm_write context;
           t.wr_idx <- idx;
           t.wr_pg <- p
       | None -> fault t a Unmapped context);
    i := !i + (page_size - (a land offset_mask))
  done

let write_u16 t addr v =
  check_write_span t addr 2 "write";
  write_u8 t addr (v land 0xFF);
  write_u8 t (addr + 1) ((v lsr 8) land 0xFF)

let write_u32 t addr v =
  let a = Word.of_int addr in
  let off = a land offset_mask in
  if off <= page_size - 4 then begin
    let p = write_page t a "write" in
    if not p.pperm.write then fault t a Perm_write "write";
    if p.frozen then unshare p;
    p.gen := fresh_gen t;
    let d = p.data in
    Bytes.unsafe_set d off (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set d (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set d (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set d (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))
  end
  else begin
    check_write_span t addr 4 "write";
    write_u8 t addr (v land 0xFF);
    write_u8 t (addr + 1) ((v lsr 8) land 0xFF);
    write_u8 t (addr + 2) ((v lsr 16) land 0xFF);
    write_u8 t (addr + 3) ((v lsr 24) land 0xFF)
  end

let fetch_u32 t addr =
  let a = Word.of_int addr in
  let off = a land offset_mask in
  if off <= page_size - 4 then begin
    let p = fetch_page t a in
    if not p.pperm.execute then fault t a Perm_exec "fetch";
    let d = p.data in
    Char.code (Bytes.unsafe_get d off)
    lor (Char.code (Bytes.unsafe_get d (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get d (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get d (off + 3)) lsl 24)
  end
  else begin
    let b0 = fetch_u8 t addr in
    let b1 = fetch_u8 t (addr + 1) in
    let b2 = fetch_u8 t (addr + 2) in
    let b3 = fetch_u8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let read_bytes t addr len =
  String.init len (fun i -> Char.chr (read_u8 t (addr + i)))

let write_bytes t addr s =
  let len = String.length s in
  if len > 0 then begin
    check_write_span t addr len "write";
    (* Committed page-at-a-time: one generation bump and one blit per
       touched page. *)
    let i = ref 0 in
    while !i < len do
      let a = Word.of_int (addr + !i) in
      let off = a land offset_mask in
      let chunk = min (len - !i) (page_size - off) in
      let p = write_page t a "write" in
      if p.frozen then unshare p;
      p.gen := fresh_gen t;
      Bytes.blit_string s !i p.data off chunk;
      i := !i + chunk
    done
  end

let read_cstring t ?(max = 4096) addr =
  let buf = Buffer.create 16 in
  let rec loop i =
    if i >= max then Buffer.contents buf
    else
      match read_u8 t (addr + i) with
      | 0 -> Buffer.contents buf
      | c ->
          Buffer.add_char buf (Char.chr c);
          loop (i + 1)
  in
  loop 0

let peek_u8 t addr =
  let addr = Word.of_int addr in
  let idx = addr lsr page_bits in
  let p =
    if idx = t.rd_idx then t.rd_pg
    else
      match Hashtbl.find_opt t.pages idx with
      | Some p ->
          t.rd_idx <- idx;
          t.rd_pg <- p;
          p
      | None -> fault t addr Unmapped "peek"
  in
  Char.code (Bytes.unsafe_get p.data (addr land offset_mask))

let peek_bytes t addr len = String.init len (fun i -> Char.chr (peek_u8 t (addr + i)))

(* Like {!write_bytes}, pokes are not torn: all pages are checked mapped
   before any byte lands (permissions are deliberately ignored — this is
   the loader populating read-only segments). *)
let poke_bytes t addr s =
  let len = String.length s in
  if len > 0 then begin
    let i = ref 0 in
    while !i < len do
      let a = Word.of_int (addr + !i) in
      if not (Hashtbl.mem t.pages (a lsr page_bits)) then
        fault t a Unmapped "poke";
      i := !i + (page_size - (a land offset_mask))
    done;
    let i = ref 0 in
    while !i < len do
      let a = Word.of_int (addr + !i) in
      let off = a land offset_mask in
      let chunk = min (len - !i) (page_size - off) in
      let p = write_page t a "poke" in
      if p.frozen then unshare p;
      p.gen := fresh_gen t;
      Bytes.blit_string s !i p.data off chunk;
      i := !i + chunk
    done
  end

(* {1 Copy-on-write snapshots}

   A snapshot is an immutable array of per-page frames, each pinning the
   page's buffer ([Bytes.t], shared — never copied at snapshot time), its
   permissions, and the generation the page carried when the snapshot was
   taken.  Taking a snapshot freezes every live page; the store paths
   unshare on the first subsequent write, so snapshot cost is O(pages)
   with zero byte copying, and restore cost is proportional to the number
   of pages actually dirtied since.

   Restore never rewinds the lineage counter: a page whose bytes are
   swapped back to snapshot contents gets a {e fresh} generation, which
   is exactly what keeps decode caches ({!Icache}) coherent — their
   entries were filled against the dirty bytes and must re-validate.
   Untouched pages (generation still equal to the frame's) keep their
   generation, so decode-cache entries for never-written text pages
   survive fork/restore cycles; that is the perf win that makes snapshot
   fuzzing cheap.  A dirtied page that owns its buffer gets the frame's
   bytes copied into it and keeps it, so the next store into it needs
   no copy: a restore-per-exec loop pays the page copies once, not on
   every exec.  A fork shares the lineage counter and starts every
   page on its frame's generation: the frame's (index, generation) pair
   already names the frame's bytes and permission, so the fork's pages
   validate the entries its parent and siblings filled. *)

type snapshot = {
  s_frames : frame array;
  s_regs : region list;
  s_lineage : lineage;
}

let snapshot t =
  let frames =
    Hashtbl.fold
      (fun idx p acc ->
        p.frozen <- true;
        { f_idx = idx; f_page = p; f_data = p.data; f_perm = p.pperm; f_gen = !(p.gen) }
        :: acc)
      t.pages []
  in
  let arr = Array.of_list frames in
  Array.sort (fun a b -> compare a.f_idx b.f_idx) arr;
  (match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" "snapshot"
        ~args:[ ("pages", Telemetry.Trace.I (Array.length arr)) ]);
  { s_frames = arr; s_regs = t.regs; s_lineage = t.lineage }

let snapshot_pages s = Array.length s.s_frames

let restore t snap =
  (* Drop pages mapped after the snapshot was taken, retiring their
     generations so stale decode-cache entries can never re-validate.
     [map]/[unmap]/[set_perm] all replace the region list, so physical
     equality with the snapshot's list proves the page table's shape is
     unchanged and the scan can be skipped — the common case in a
     restore-per-exec fuzzing loop. *)
  (if t.regs != snap.s_regs then begin
     let keep = Hashtbl.create (Array.length snap.s_frames) in
     Array.iter (fun f -> Hashtbl.replace keep f.f_idx ()) snap.s_frames;
     let stale =
       Hashtbl.fold
         (fun idx p acc -> if Hashtbl.mem keep idx then acc else (idx, p) :: acc)
         t.pages []
     in
     List.iter
       (fun (idx, p) ->
         p.gen := fresh_gen t;
         Hashtbl.remove t.pages idx)
       (List.sort compare stale)
   end);
  let dirty = ref 0 in
  let again = t.restored == snap.s_frames and upto = t.restored_upto in
  Array.iter
    (fun f ->
      match Hashtbl.find_opt t.pages f.f_idx with
      | Some p when p == f.f_page && !(p.gen) = f.f_gen ->
          (* Untouched since the snapshot: nothing to do, and crucially
             the generation is preserved so decode-cache entries filled
             from this page stay valid across the restore. *)
          ()
      | Some p when again && !(p.gen) <= upto ->
          (* Unchanged since this snapshot was last restored: it carries
             the frame's bytes already.  Skip the gen bump. *)
          ()
      | Some p when p.frozen && p.data == f.f_data && p.pperm = f.f_perm ->
          (* Already carrying the snapshot's buffer (restored from another
             snapshot sharing it, say).  Bytes are identical by the
             frozen invariant; skip the gen bump. *)
          ()
      | Some p ->
          incr dirty;
          p.pperm <- f.f_perm;
          p.gen := fresh_gen t;
          if p.frozen || p.data == f.f_data then begin
            (* Shared buffer: point at the frame's, still frozen. *)
            p.data <- f.f_data;
            p.frozen <- true
          end
          else
            (* Private buffer: rewrite it and keep it private. *)
            Bytes.blit f.f_data 0 p.data 0 page_size
      | None ->
          incr dirty;
          Hashtbl.replace t.pages f.f_idx
            {
              pperm = f.f_perm;
              data = f.f_data;
              gen = ref (fresh_gen t);
              frozen = true;
            })
    snap.s_frames;
  t.regs <- snap.s_regs;
  t.restored <- snap.s_frames;
  t.restored_upto <- t.lineage.last_gen;
  invalidate_page_caches t;
  match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" "restore"
        ~args:
          [
            ("pages", Telemetry.Trace.I (Array.length snap.s_frames));
            ("dirty", Telemetry.Trace.I !dirty);
          ]

let fork snap =
  let t = with_lineage snap.s_lineage in
  Array.iter
    (fun f ->
      Hashtbl.replace t.pages f.f_idx
        { pperm = f.f_perm; data = f.f_data; gen = ref f.f_gen; frozen = true })
    snap.s_frames;
  t.regs <- snap.s_regs;
  t

let hexdump t ~base ~len =
  let buf = Buffer.create (len * 4) in
  let lines = (len + 15) / 16 in
  for line = 0 to lines - 1 do
    let addr = base + (line * 16) in
    Buffer.add_string buf (Printf.sprintf "%08x  " addr);
    for i = 0 to 15 do
      if (line * 16) + i < len then
        Buffer.add_string buf (Printf.sprintf "%02x " (peek_u8 t (addr + i)))
      else Buffer.add_string buf "   ";
      if i = 7 then Buffer.add_char buf ' '
    done;
    Buffer.add_string buf " |";
    for i = 0 to 15 do
      if (line * 16) + i < len then begin
        let c = peek_u8 t (addr + i) in
        Buffer.add_char buf (if c >= 0x20 && c < 0x7F then Char.chr c else '.')
      end
    done;
    Buffer.add_string buf "|\n"
  done;
  Buffer.contents buf

let pp_layout ppf t =
  List.iter
    (fun reg ->
      Format.fprintf ppf "%a-%a %a %s@." Word.pp reg.base Word.pp
        (reg.base + reg.size) pp_perm reg.perm reg.name)
    (regions t)
