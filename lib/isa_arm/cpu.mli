(** ARMv7 (A32) interpreter over {!Memsim.Memory}.

    Models the ARM-specific properties the paper's §III-B2/§III-C2 exploits
    depend on: arguments in r0–r3 (so classic ret2libc cannot set them from
    the stack), function return via [pop {…, pc}] or [bx lr], [blx rN]
    link semantics (lr = next instruction), and pc reading as
    "current + 8".

    As on x86, {!run} is the tight loop and {!run_hooked} hands every
    instruction to a list of {!Machine.Hook}s.  For the hooks, [bl] and
    [blx] are calls; [bx lr], [mov pc, lr] and [pop {…, pc}] are returns;
    any other pc write is an indirect jump. *)

type t = {
  mem : Memsim.Memory.t;
  regs : int array;  (** r0–r15; index 15 is the current instruction address *)
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable shadow : int list;
      (** shadow return stack, kept by {!Machine.Hook.cfi} (empty without
          it) *)
  mutable steps : int;
  mutable branched : bool;
      (** interpreter-internal: the executing instruction transferred
          control, so the fall-through pc update is skipped *)
  icache : compiled Memsim.Icache.t option;
      (** decoded-instruction cache ([None] = decode every step) *)
}

and kernel = int -> t -> Machine.Outcome.syscall_result
(** [svc n] handler; by ARM EABI convention r7 carries the syscall number
    and r0–r2 the arguments. *)

and compiled = private {
  insn : Insn.t;
  run : t -> kernel -> Machine.Outcome.stop_reason option;
}
(** Icache payload: the decoded instruction plus an execution thunk
    specialized for the instruction's address (pc+8 reads, successor pc
    and branch targets pre-resolved).  Behaviorally identical to
    interpreting [insn] — the cache only ever changes speed, never
    outcomes. *)

val decode_table : Memsim.Memory.t -> compiled Memsim.Icache.table
(** An empty decode table for the memory's lineage, to be shared by the
    CPUs {!create}d over that memory and its forks (a process keeps one
    for its whole life). *)

val create : ?icache:bool -> ?table:compiled Memsim.Icache.table -> Memsim.Memory.t -> t
(** [icache] (default [true]) enables the write-invalidated
    decoded-instruction cache; execution is bit-identical either way
    (self-modifying pages re-decode via {!Memsim.Memory.page_gen}).  The
    cache attaches to [table] (default: a fresh {!decode_table}), so
    decodes filled by earlier CPUs over the table's lineage are hits;
    the {!t.icache} handle's counters start at zero.  Raises
    [Invalid_argument] if [table] is of another lineage. *)

val get : t -> Insn.reg -> int
(** Reading [PC] yields the architectural value (current instruction + 8). *)

val set : t -> Insn.reg -> int -> unit
(** Writing [PC] branches (use within the interpreter only). *)

val pc : t -> int
(** Address of the instruction about to execute. *)

val set_pc : t -> int -> unit

val push : t -> int -> unit
val pop : t -> int

val step : t -> kernel:kernel -> Machine.Outcome.stop_reason option

val run :
  ?fuel:int -> traps:int list -> kernel:kernel -> t -> Machine.Outcome.stop_reason
(** Run until a trap address is reached ([Halted]), a stop condition fires,
    or [fuel] instructions (default 2_000_000) have retired.  The loop is
    specialized by trap count and carries no hook branch. *)

val run_hooked :
  ?fuel:int ->
  traps:int list ->
  kernel:kernel ->
  hooks:Insn.t Machine.Hook.t list ->
  t ->
  Machine.Outcome.stop_reason
(** Like {!run}, handing every instruction to [hooks] — the ARM twin of
    the x86 [run_hooked]: one fetch per instruction (through the icache
    when that is on), classified against the pre-state (a
    condition-failed instruction transfers nothing) and offered to the
    hooks before it executes.  Observer-only hooks leave outcome, step
    count and registers exactly as {!run} leaves them.  With no hooks
    this is {!run}. *)

val view : t -> Machine.Hook.view
(** Track ["cpu-arm"], syscall-number register ["r7"]. *)

val taint : t -> Sanitizer.Oracle.t -> Insn.t Machine.Hook.t
(** The taint sanitizer's planner — the ARM twin of the x86 one:
    loads/stores/data-processing ops propagate labels through the
    oracle, and the detections (redzone write, return-slot overwrite,
    tainted pc via [pop {…, pc}]/[bx]/[blx]/pc-writing data-processing
    ops, tainted [svc]) fire as instructions are about to retire.  The
    oracle never touches guest state, so outcomes, step counts and
    registers are identical sanitized or not. *)

(** {2 Single-hook entry points} *)

val run_traced :
  ?fuel:int ->
  traps:int list ->
  kernel:kernel ->
  ?trace:Telemetry.Trace.t ->
  ?profile:Telemetry.Profile.t ->
  t ->
  Machine.Outcome.stop_reason
(** {!run_hooked} with {!Machine.Hook.observers}. *)

val run_sanitized :
  ?fuel:int ->
  traps:int list ->
  kernel:kernel ->
  oracle:Sanitizer.Oracle.t ->
  t ->
  Machine.Outcome.stop_reason
(** {!run_hooked} with the {!taint} planner. *)

val run_mitigated :
  ?fuel:int ->
  traps:int list ->
  kernel:kernel ->
  shadow_stack:bool ->
  forward_cfi:bool ->
  valid_target:(int -> bool) ->
  ?shadow0:int list ->
  t ->
  Machine.Outcome.stop_reason
(** {!run_hooked} with {!Machine.Hook.cfi}, after seeding {!t.shadow}
    with [shadow0] (default empty). *)
