(** x86-32 interpreter over {!Memsim.Memory}.

    Faithfully models the properties the paper's exploits rest on:
    instruction fetch goes through page permissions (so W⊕X is a real NX
    check, not a flag), [call]/[ret] move real bytes through the simulated
    stack (so a smashed return address genuinely redirects control), and
    arguments are passed on the stack (cdecl).

    Two ways to run: {!run}, the tight loop, and {!run_hooked}, the same
    fetch–execute cycle handing every instruction to a list of
    {!Machine.Hook}s — the taint planner ({!taint}), telemetry, and the
    enforced shadow stack and forward-edge CFI of the paper's §IV. *)

type t = {
  mem : Memsim.Memory.t;
  regs : int array;  (** eight GPRs indexed by {!Insn.reg_index} *)
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable o_f : bool;
  mutable shadow : int list;
      (** shadow return stack, kept by {!Machine.Hook.cfi} (empty without
          it) *)
  mutable steps : int;  (** instructions retired, for benches *)
  icache : compiled Memsim.Icache.t option;
      (** decoded-instruction cache ([None] = decode every step) *)
}

and kernel = int -> t -> Machine.Outcome.syscall_result
(** System-call handler: receives the [int n] vector number and the CPU
    (registers carry the arguments, eax the syscall number by Linux i386
    convention). *)

and compiled = private {
  insn : Insn.t;
  next : int;  (** fall-through address *)
  run : t -> kernel -> Machine.Outcome.stop_reason option;
}
(** Icache payload: the decoded instruction, its fall-through address,
    and an execution thunk specialized for the instruction's address
    (successor eip and branch targets pre-resolved).  Behaviorally identical to interpreting
    [insn] — the cache only ever changes speed, never outcomes. *)

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
val set : t -> Insn.reg -> int -> unit

val push : t -> int -> unit
(** Decrement [esp] by 4 and store a 32-bit word. *)

val pop : t -> int
(** Load a 32-bit word and increment [esp] by 4. *)

val step : t -> kernel:kernel -> Machine.Outcome.stop_reason option
(** Execute one instruction.  [None] means keep running. *)

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
(** Like {!run}, handing every instruction to [hooks] (see
    {!Machine.Hook}): each instruction is fetched once, through the
    icache when that is on (so icache hit/miss counts match {!run}),
    classified — [call]/[ret]/[jmp] through a register or memory/[int] —
    and offered to the hooks before it executes; the hooks hear when it
    retires and how the run ended.  Hooks that only observe leave
    outcome, step count and registers exactly as {!run} leaves them.
    With no hooks this is {!run}. *)

val view : t -> Machine.Hook.view
(** Track ["cpu-x86"], syscall-number register ["eax"]. *)

val taint : t -> Sanitizer.Oracle.t -> Insn.t Machine.Hook.t
(** The taint sanitizer's planner: every load/store/ALU op propagates
    labels through the oracle's shadow state, and the oracle's detections
    (redzone write, return-slot overwrite, tainted pc, tainted syscall)
    fire as instructions are about to retire.  The oracle never touches
    guest state, and every guest read the planner makes is guarded
    against faults, so outcomes, step counts and registers are identical
    sanitized or not — whether or not reports fire. *)

(** {2 Single-hook entry points} *)

val run_traced :
  ?fuel:int ->
  traps:int list ->
  kernel:kernel ->
  ?trace:Telemetry.Trace.t ->
  ?profile:Telemetry.Profile.t ->
  t ->
  Machine.Outcome.stop_reason
(** {!run_hooked} with {!Machine.Hook.observers}: ["cpu"]-category events
    into [trace], every fetched pc into [profile]. *)

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
    with [shadow0] (default empty) — the caller's synthetic return
    address(es).  A violating [ret]/[ret n] or indirect [call]/[jmp]
    stops with [Cfi_violation] at that instruction, before it
    executes. *)
