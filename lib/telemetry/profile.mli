(** Instruction-level profiler.

    The interpreters' profile hook calls {!record} with the program counter of
    every retired instruction; reporting buckets the raw pc counts by
    nearest symbol using a caller-supplied [symbolize] function (in
    practice [Exploit.Debugger.symbolize], which renders
    ["name+0x12"] or a bare hex address).  The ["+0x..."] offset suffix
    is stripped so all samples inside one function aggregate under its
    base symbol.

    Conservation invariant, asserted by the tests: the per-symbol counts
    of {!report} (and the folded lines of {!folded}) sum to {!total},
    which equals the number of instructions the CPU retired while the
    profiler was attached. *)

type t
(** Per-pc counts in an open-addressed int table: {!record} allocates
    nothing and {!clear} keeps the table's capacity, so one profiler can
    be reused across many runs. *)

val create : unit -> t

val record : t -> int -> unit
(** One retired instruction at this pc.  Pcs are non-negative guest
    addresses. *)

val set_sink : t -> (int -> unit) option -> unit
(** Attach (or detach with [None]) a tap on the raw pc stream: the sink
    fires on every {!record}, after counting.  Its remaining user is the
    end-to-end benchmark's mirrored fuzz loop ([e2e_bench/fuzz_wl.ml]),
    which feeds the fuzzer's edge map through it.  A consumer that needs
    only the stream should pass its function as [Process.call]'s
    [~on_step] instead and skip the count, as [Fuzz.Engine] does: a
    profiled step costs a table probe more than a sampled one.  [None]
    by default; detached, the tap costs one option check per retired
    instruction. *)

val total : t -> int  (** instructions recorded *)

val distinct_pcs : t -> int

val report : t -> symbolize:(int -> string) -> (string * int) list
(** Per-symbol instruction counts, sorted by count descending (ties by
    symbol name ascending). *)

val folded : t -> symbolize:(int -> string) -> ?root:string -> unit -> string
(** Flamegraph-ready folded-stack lines: ["root;symbol count\n"] per
    symbol (root defaults to ["all"]).  Feed to
    [flamegraph.pl] / speedscope as-is. *)

val pp_flat : ?top:int -> symbolize:(int -> string) -> Format.formatter -> t -> unit
(** Flat profile table: count, percentage, symbol; [top] rows (default
    all). *)

val clear : t -> unit
