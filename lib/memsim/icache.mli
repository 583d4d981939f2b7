(** Write-invalidated decoded-instruction cache over {!Memory}.

    Shared by both interpreters (the cached value type ['a] is the ISA's
    instruction type): each address decodes at most once per generation
    of the page(s) holding its bytes, and {!Memory}'s per-page write
    generations invalidate entries automatically — a byte store,
    [mprotect], or unmap/remap of an executed page forces a re-decode,
    which keeps execution bit-identical under self-modifying code
    (shellcode written to the stack and then run).

    The cache is split in two:
    - a decode {!table} maps page indices to decoded entries.  It belongs
      to one memory {!Memory.lineage} and may outlive any number of runs:
      a process keeps one across calls, and every copy-on-write fork of
      the process (a {!Memory.fork}, also after its text was rewritten)
      shares it;
    - a handle (['a t]) attaches a table to one memory for a run, and
      carries that run's state: the page it last looked up, that page's
      generation cell, and the hit/miss counters.

    Validation is by value: an entry hits iff the generation it was
    filled under equals the generation the {e current} memory's page
    carries now — whichever memory of the lineage filled it.  Within a
    lineage a (page, generation) pair names one immutable content and
    permission ({!Memory.page_gen}), so a parent and its forks share
    exactly the entries of pages neither has changed. *)

type 'a entry = private {
  v : 'a;
  len : int;
  gen : int;  (** generation of the page holding the first byte at fill *)
  hi_gen : int;
      (** generation of the page holding the last byte, [-1] unless the
          encoding straddles a page boundary *)
}
(** A decoded instruction [v] of encoded length [len], valid while the
    page(s) it was decoded from carry the recorded generation(s). *)

type 'a table

val table : dummy:'a -> Memory.t -> 'a table
(** An empty decode table for the memory's lineage.  [dummy] is any value
    of the instruction type; it pre-fills the slot arrays (with a
    generation no page can carry) so the hit path needs no [option] box.
    It is never returned by {!lookup}. *)

type 'a t

val attach : 'a table -> Memory.t -> 'a t
(** A handle over [table] for a run on the memory, with zeroed counters.
    Raises [Invalid_argument] if the memory is not of the table's
    lineage (generations of different lineages are unrelated). *)

val create : dummy:'a -> Memory.t -> 'a t
(** [attach (table ~dummy mem) mem]: a handle over a fresh table. *)

val lookup : 'a t -> int -> decode:(Memory.t -> int -> 'a * int) -> 'a entry
(** [lookup t addr ~decode] returns the cached decode of the instruction
    at [addr], calling [decode mem addr] (which must return the decoded
    value and its encoded byte length) on a miss or stale entry.
    Exceptions from [decode] — decode errors, NX faults — propagate and
    cache nothing.  Pass a top-level function for [decode] so the hit
    path allocates nothing; the decoded value must not depend on
    anything but the address and the bytes and permission of the page(s)
    it was decoded from, since any memory of the lineage may hit it. *)

val hits : 'a t -> int
val misses : 'a t -> int
(** This handle's hits and fills (a fill is a miss or an invalidated
    entry); the invalidation tests assert a rewrite of an executed page
    forces a miss. *)

val clear : 'a t -> unit
(** Drop every entry of the handle's table, for every memory sharing it
    (the generation protocol makes this unnecessary for correctness;
    provided for tests and memory reclamation). *)
