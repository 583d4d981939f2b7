(** Sparse, paged, byte-addressable 32-bit memory with per-page permissions.

    This is the substrate every simulated machine runs on.  Memory is mapped
    in named regions ({i segments}), each carrying read/write/execute
    permissions.  Accessing unmapped memory, or violating a permission,
    raises {!Fault} — exactly the signal a real MMU delivers as SIGSEGV,
    and the mechanism by which both the paper's denial-of-service outcome
    and the W⊕X defense are realised in this reproduction. *)

type perm = { read : bool; write : bool; execute : bool }

val r : perm
val rw : perm
val rx : perm
val rwx : perm
val none : perm

val pp_perm : Format.formatter -> perm -> unit
(** Renders like [r-x]. *)

type fault_kind =
  | Unmapped  (** access to an address with no backing page *)
  | Perm_read  (** read from a non-readable page *)
  | Perm_write  (** write to a non-writable page *)
  | Perm_exec  (** instruction fetch from a non-executable page (NX / W⊕X) *)

type fault = { addr : int; kind : fault_kind; context : string }

exception Fault of fault

val pp_fault : Format.formatter -> fault -> unit
val fault_to_string : fault -> string

type region = { name : string; base : int; size : int; perm : perm }

type t

val create : unit -> t
(** A fresh, fully unmapped address space. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Attach (or detach with [None]) a telemetry sink.  With a sink
    attached, faults and mapping changes ({!map}, {!unmap},
    {!set_perm}) emit events under category ["mem"].  These are all
    cold paths: the per-byte accessors' hit paths never consult the
    sink, so a detached trace costs nothing. *)

val trace : t -> Telemetry.Trace.t option

val page_size : int
(** 4096, as on the paper's targets. *)

val page_bits : int
(** [log2 page_size] = 12. *)

type lineage
(** The generation counter shared by a memory made with {!create} and
    every memory {!fork}ed from it, directly or through other forks. *)

val lineage : t -> lineage
(** Compare with [==]: two memories share a lineage iff one was forked,
    directly or transitively, from a snapshot of the other or both from
    snapshots of a common ancestor. *)

val page_gen : t -> int -> int
(** Write generation of the page containing the address, or [-1] if no
    page is mapped there.  A page's generation changes on every byte
    store ({!write_u8}, {!write_u16}, {!write_u32}, {!write_bytes},
    {!poke_bytes}), on every permission change ({!set_perm}), and when
    {!restore} swaps its bytes back; each new value is drawn from the
    memory's {!lineage}, so no value is ever reused within a lineage —
    not across writes, page lifetimes (a page remapped after {!unmap}
    starts at a fresh value), or forks.

    The contract decode caches ({!Icache}) rely on: within one lineage,
    a (page index, generation) pair names one immutable page content and
    permission, in whichever memory of the lineage the page carries it.
    {!fork} keeps the snapshot's generations rather than drawing fresh
    ones, so a decode filled in a parent validates in its forks (and
    vice versa) for exactly the pages neither has changed since. *)

val gen_ref : t -> int -> int ref
(** The generation cell of the page containing the address (the cell
    {!page_gen} reads).  A decode cache binds the cell of the page it is
    executing from and validates each entry with a direct load + compare
    against the generation the entry was filled under — no call back into
    this module on the hit path.  Each page lifetime has its own cell,
    and {!unmap} (or a {!restore} that drops the page) retires the cell's
    value, so a stale cell never holds a live generation.  Raises
    {!Fault} ([Unmapped]) if no page is mapped there. *)

val map : t -> base:int -> size:int -> perm:perm -> name:string -> unit
(** Map a zero-filled region.  [base] and [size] are rounded outward to page
    boundaries for permission purposes, but the region record keeps the
    exact values.  Overlapping an existing mapping raises
    [Invalid_argument].  Every new page starts on one shared, never
    written zero buffer, marked copy-on-write like a snapshotted page, so
    a mapping allocates no page buffer until its first store, and then
    only for the page stored to. *)

val unmap : t -> base:int -> unit
(** Remove the region whose [base] matches exactly.  Raises
    [Invalid_argument] naming the base if no such region exists. *)

val set_perm : t -> base:int -> perm -> unit
(** Change the permissions of the region starting at [base] (an [mprotect]
    analogue).  Raises [Invalid_argument] naming the base if no region
    starts there. *)

val regions : t -> region list
(** All mapped regions, sorted by base address. *)

val region_at : t -> int -> region option
(** The region containing the given address, if any. *)

val find_region : t -> string -> region
(** Region by name.  Raises [Invalid_argument] naming the region if no
    region carries that name. *)

val is_mapped : t -> int -> bool

(** {1 Typed access}

    All multi-byte accessors are little-endian, as on both x86 and the
    (little-endian-configured) ARMv7 targets of the paper. *)

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val write_u16 : t -> int -> int -> unit
(** Multi-byte writes are atomic with respect to faults: every page the
    span touches is validated (mapped and writable) before any byte is
    committed, so a page-spanning write into a bad page leaves no partial
    write behind.  The fault reports the lowest offending address. *)

val write_u32 : t -> int -> int -> unit

val fetch_u8 : t -> int -> int
(** Like {!read_u8} but requires execute permission — the instruction-fetch
    path. *)

val fetch_u32 : t -> int -> int

val read_bytes : t -> int -> int -> string
(** [read_bytes m addr len] — raises {!Fault} on the first offending byte. *)

val write_bytes : t -> int -> string -> unit
(** Atomic like {!write_u32}: all touched pages are validated before any
    byte is committed. *)

val read_cstring : t -> ?max:int -> int -> string
(** Read a NUL-terminated string (at most [max] bytes, default 4096). *)

val peek_bytes : t -> int -> int -> string
(** Permission-blind read for debugger-style inspection ([gdb] analogue).
    Still faults on unmapped pages. *)

val poke_bytes : t -> int -> string -> unit
(** Permission-blind write, used by the loader to populate read-only
    segments.  Atomic with respect to unmapped pages (all pages checked
    before any byte lands) and bumps the write generation of every
    touched page, like {!write_bytes}. *)

(** {1 Copy-on-write snapshots}

    A {!snapshot} captures the full machine memory — page contents,
    permissions, region table — in O(pages) time with {e zero} byte
    copying: every live page is frozen and its buffer shared with the
    snapshot.  The store paths transparently unshare (copy) a frozen
    page on the first subsequent write, so the mutator pays one
    page-copy per dirtied page and untouched pages cost nothing.
    {!restore} copies the snapshot's bytes back into a page's private
    buffer rather than sharing the snapshot's again, so in a
    restore-per-exec loop only the first exec pays the page copies.

    Generation-counter interaction (the {!Icache} contract): {!restore}
    never rewinds the lineage's generation counter.  Pages dirtied since the
    snapshot get a {e fresh} generation when their bytes are swapped
    back, forcing decode caches to re-validate; pages never written keep
    their generation, so cached decodes of text pages survive arbitrarily
    many fork/restore cycles.  Multiple snapshots of the same memory, and
    restores in any order, are supported. *)

type snapshot

val snapshot : t -> snapshot
(** Capture current memory state.  Freezes all live pages (subsequent
    writes to this memory copy-on-write). *)

val restore : t -> snapshot -> unit
(** Rewind memory to the snapshot: page contents, permissions, and the
    region table.  Cost is proportional to the pages dirtied, mapped, or
    unmapped since the snapshot was taken.  The snapshot remains valid
    and may be restored again.

    A dirtied page whose buffer is private (unshared by a store since
    the page was last frozen) gets the snapshot's bytes copied into that
    buffer and stays private, so the next store to it allocates
    nothing; a page still on a shared buffer is pointed at the
    snapshot's.  Either way the page takes a fresh generation, exactly
    as before: the generation contract above is unchanged, and no
    buffer a snapshot holds is ever written. *)

val fork : snapshot -> t
(** A fresh, independent memory whose initial state is the snapshot.
    Shares page buffers copy-on-write with the snapshot (and with any
    other fork of it); no trace sink is attached.  The fork joins the
    snapshot's {!lineage} and each page keeps the generation it had in
    the snapshot, so a decode cache may be shared between the parent and
    all its forks (see {!page_gen}); later stores, in the fork or
    elsewhere in the lineage, draw generations no other memory of the
    lineage will carry. *)

val snapshot_pages : snapshot -> int
(** Number of pages the snapshot pins. *)

val hexdump : t -> base:int -> len:int -> string
(** Conventional 16-bytes-per-line hex + ASCII dump (inspection only). *)

val pp_layout : Format.formatter -> t -> unit
(** One line per region: base, end, perms, name. *)
