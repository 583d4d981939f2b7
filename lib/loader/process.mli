(** Boot a program into a simulated process and call its functions.

    [boot] performs what execve + ld.so do on the paper's targets: lays
    out the address space ({!Layout}), assembles and maps the simulated
    libc, synthesizes PLT/GOT stubs for the program's imports, assembles
    the main image at its fixed base, applies the protection profile
    (stack executable iff W⊕X is off; libc/stack bases randomized iff
    ASLR is on; canary cookie written iff canaries are on), and exposes a
    symbol table playing the role of the attacker's offline [gdb] /
    [ropper] analysis of their local copy of the binary. *)

type code =
  | X86_code of Isa_x86.Asm.program
  | Arm_code of Isa_arm.Asm.program

type spec = {
  name : string;
  code : code;
  imports : string list;  (** libc functions reached through the PLT *)
  bss_size : int;
}

type t = {
  spec : spec;
  arch : Arch.t;
  mem : Memsim.Memory.t;
  layout : Layout.t;
  profile : Defense.Profile.t;
  symbols : (string * int) list;
      (** main-image symbols, ["f@plt"] stubs, libc symbols, and the
          specials ["__bss_start"], ["__canary"]. *)
  trap : int;  (** top-level return address; reaching it means Halted *)
  valid_targets : (int, unit) Hashtbl.t Lazy.t;
      (** forward-edge CFI policy set — every symbol address (function
          entries, PLT stubs, loader specials): coarse-grained label
          CFI as an embedded toolchain would emit it.  Lazy so
          unmitigated processes pay nothing; shared across forks. *)
  decoded : decoded;
      (** the decode table every {!call} with [~icache:true] reuses;
          made at {!boot} and shared by every {!fork} and {!reimage} of
          the process (see {!Memsim.Icache}). *)
}

and decoded =
  | X86_decoded of Isa_x86.Cpu.compiled Memsim.Icache.table
  | Arm_decoded of Isa_arm.Cpu.compiled Memsim.Icache.table

val boot : spec -> profile:Defense.Profile.t -> seed:int -> t
(** [seed] drives all per-boot randomness (ASLR draws, canary cookie);
    the same seed reproduces the same address space bit-for-bit. *)

val symbol : t -> string -> int
(** Raises [Not_found]. *)

val symbol_opt : t -> string -> int option

val valid_target : t -> int -> bool
(** Membership in the forward-edge CFI policy set ({!t.valid_targets}). *)

val reimage : t -> spec -> t option
(** Replace the main image in place with a re-assembled variant of the
    program — the per-boot diversification primitive.  The text region
    was page-rounded at boot, so a shuffled/padded/rewritten variant of
    the same program usually still fits in the mapped slack; extern
    bindings (PLT stubs, [__bss_start], [__canary]) are recovered from
    the symbol table so the variant links against the already-mapped
    world, and main-image symbols are replaced by the variant's.
    Returns [None] when the variant's text does not fit (callers fall
    back to a full {!boot}).  Cheap — one assembly plus one text
    write — so it composes with {!fork} for µs-scale diversified
    spawning.  Raises if the spec's architecture differs or an import
    has no PLT stub. *)

val snapshot : t -> Memsim.Memory.snapshot
(** Copy-on-write snapshot of the process memory (see
    {!Memsim.Memory.snapshot}).  Everything else in [t] is immutable
    after [boot], so this captures the whole machine state between
    calls: a later {!restore} followed by {!call} replays bit-identically
    (outcome, step count, register file). *)

val restore : t -> Memsim.Memory.snapshot -> unit

val fork : t -> Memsim.Memory.snapshot -> t
(** An independent process sharing this one's immutable boot state
    (layout, symbols, profile) with memory forked copy-on-write from the
    snapshot, which must come from this process or a process it shares
    a memory {!Memsim.Memory.lineage} with (a fork, or the template it
    was forked from); raises [Invalid_argument] otherwise.  The fork
    shares this process's decode table ({!t.decoded}), so decodes of
    pages neither has written since the snapshot are hits in both. *)

type run_result = {
  outcome : Machine.Outcome.stop_reason;
  steps : int;  (** instructions retired during the call *)
  ret : int;  (** eax / r0 at stop time *)
  regs : int array;  (** full register file at stop time (8 on x86, 16 on ARM) *)
  icache_hits : int;
      (** decoded-instruction cache hits during this call (0 if
          disabled) *)
  icache_misses : int;  (** fills during this call *)
}

val call :
  ?fuel:int ->
  ?icache:bool ->
  ?on_step:(int -> unit) ->
  ?sanitizer:Sanitizer.Oracle.t ->
  ?trace:Telemetry.Trace.t ->
  ?profile:Telemetry.Profile.t ->
  t ->
  entry:int ->
  args:int list ->
  run_result
(** Call a function following the architecture's convention (cdecl stack
    arguments on x86, r0–r3 on ARM; at most 4 args on ARM) on a fresh
    stack at the top of the stack region.  The CPU is created, unless
    [icache:false], with the decoded-instruction cache over the process's
    decode table ({!t.decoded}), so instructions decoded by earlier calls
    on this process or its forks are hits when their pages are unchanged
    (bit-identical execution either way — the differential tests step
    every exploit scenario both ways, and interleave calls on forks that
    share one table).  {!run_result}'s icache counters cover this call
    only.

    Every call runs the ISA's hooked loop with one list of
    {!Machine.Hook}s: [on_step] sees every program-counter value before
    the instruction executes (single-step debugging, the fuzzer's edge
    coverage), [profile] counts
    them, [trace] receives ["cpu"]-category events, [sanitizer] runs the
    ISA's taint planner against the given oracle, and — when the process
    profile carries the embedded mitigations
    ({!Defense.Profile.mitigated}) — {!Machine.Hook.cfi} enforces the
    shadow return stack and forward-edge CFI against {!t.valid_targets}.
    Observers and enforcement compose: outcome, step count and registers
    depend on the profile alone, never on which observers are attached.
    With no observer and no mitigation, the call runs the plain tight
    loop. *)

val call_named :
  ?fuel:int ->
  ?icache:bool ->
  ?on_step:(int -> unit) ->
  ?sanitizer:Sanitizer.Oracle.t ->
  ?trace:Telemetry.Trace.t ->
  ?profile:Telemetry.Profile.t ->
  t ->
  entry:string ->
  args:int list ->
  run_result

val pp_summary : Format.formatter -> t -> unit
