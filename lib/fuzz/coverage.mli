(** Edge-coverage bitmap over the retired-instruction stream.

    Takes any pc stream: {!touch} is a plain [int -> unit].  The fuzz
    engine passes it as [Loader.Process.call]'s [~on_step], so the map
    sees every pc the hooked interpreter loop fetches, with no profiler
    in between.  An edge is a hashed (previous pc, pc) pair in a fixed
    65536-bucket map, as in AFL.  Per instruction, {!touch} reads one
    byte of the map; it allocates only when an exec hits a bucket no
    execution has hit before. *)

type t

val create : unit -> t

val begin_exec : t -> unit
(** Start a new execution: resets the previous-pc state.  Buckets a
    previous execution hit but never {!commit}ted are forgotten. *)

val touch : t -> int -> unit
(** One retired instruction at this pc. *)

val commit : t -> int
(** Fold the current execution's edges into the global map; returns the
    number of edges never seen by {e any} prior execution (> 0 means
    the input found new coverage and belongs in the corpus). *)

val edges : t -> int
(** Distinct edges ever hit. *)
