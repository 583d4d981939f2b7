(** Instruction hooks: what the interpreters' hooked fetch–execute loop
    hands each instruction to.

    Each ISA has one hooked loop ([Cpu.run_hooked]).  Per instruction it
    reports the pc about to be fetched ({!t.fetch}), fetches once
    (through the decoded-instruction cache when that is on), classifies
    the instruction's control flow ({!transfer}) against the pre-state
    when some hook reads it ({!t.classify}), offers both to every hook
    ({!t.check}) — any hook may stop the run
    there, before the instruction executes — executes it, and tells every
    hook it retired ({!t.retire}), which is when hooks commit their own
    state.  {!t.finish} reports how the run ended.  Hooks are called in
    list order, so observers listed before an enforcing hook see the
    instruction it then vetoes.

    Hooks never touch guest state, so a run's outcome, step count and
    registers depend only on the enforcing hooks present ({!cfi}); adding
    or removing observers ({!sample}, {!trace}, the ISAs' taint planners)
    changes nothing the guest can see.

    The hooks here are ISA-neutral; they see the CPU through a {!view}.
    Taint planning follows each instruction's semantics and so lives
    with each ISA ([Cpu.taint]). *)

type transfer =
  | Fall
      (** no control transfer a hook checks: straight-line code, direct
          jumps and conditional branches, and (ARM) instructions whose
          condition fails *)
  | Call of { target : int; ret : int; indirect : bool }
      (** a call to [target] that links [ret]; [indirect] when the target
          came from a register or memory *)
  | Return of int  (** a return to this target *)
  | Jump of int  (** an indirect jump or computed pc write to this target *)
  | Syscall of { vector : int; number : int }
      (** [int vector] / [svc vector] with the syscall-number register *)

type ending =
  | Trapped  (** reached a trap address: [Halted] *)
  | Stopped of Outcome.stop_reason
      (** the fetch, the instruction, or a hook's check stopped the run *)
  | Out_of_fuel

type view = {
  track : string;  (** trace lane of this CPU, e.g. ["cpu-x86"] *)
  sysreg : string;  (** name of the syscall-number register *)
  pc : unit -> int;
  steps : unit -> int;  (** instructions retired so far *)
  shadow : unit -> int list;  (** the CPU's shadow return stack *)
  set_shadow : int list -> unit;
}
(** An ISA-neutral view of one CPU. *)

type 'insn t = {
  fetch : (int -> unit) option;
  check :
    (pc:int -> next:int -> 'insn -> transfer -> Outcome.stop_reason option) option;
      (** [next] is the fall-through address *)
  classify : bool;
      (** [check] reads its {!transfer}.  When no hook does, the loop
          does not classify and passes [Fall]. *)
  retire : (pc:int -> next:int -> unit) option;
  finish : (ending -> unit) option;
}
(** A hook is the callbacks it needs; the loop calls nothing else. *)

val nothing : 'insn t
(** No callbacks: the base the hooks override. *)

val compose : 'insn t list -> 'insn t
(** One hook that calls the list's hooks in order.  Its [check] stops at
    the first hook that stops the run: later hooks are not asked.  A
    callback no hook has stays [None], and it classifies when any hook
    does — the loop skips classification when nothing reads it. *)

val traps : int list -> int * (int, unit) Hashtbl.t option
(** The hooked loops' trap test, built once per run and specialised the
    way [Cpu.run]'s loops are: [(first, more)] where a pc is a trap iff
    it equals [first] or is in [more].  [first] is the only trap, or -1
    (no pc) when there is none; [more] holds the traps when there are
    several, so a run with at most one trap pays one int compare per
    step. *)

(** {2 The ISA-neutral hooks} *)

val sample : (int -> unit) -> 'insn t
(** Calls the function with every pc about to be fetched — also the one
    whose fetch then faults (single-step observation, profiling). *)

val trace : view -> Telemetry.Trace.t -> 'insn t
(** ["cpu"]-category events on the view's track: ["call"] (emitted on
    creation, with the entry pc), ["syscall"] before each system call,
    ["bb"] on every retired instruction that did not fall through,
    ["trap"] or ["stop"] at the end.  Timestamps are the step counter
    offset from the trace clock at creation (one instruction renders as
    one µs); the clock is advanced past the run when it ends. *)

val observers :
  view -> ?trace:Telemetry.Trace.t -> ?profile:Telemetry.Profile.t -> unit -> 'insn t list
(** The profile's {!sample} hook, then the {!trace} hook, for whichever
    is given. *)

val cfi :
  view ->
  shadow_stack:bool ->
  forward_cfi:bool ->
  valid_target:(int -> bool) ->
  'insn t
(** The enforced embedded mitigations — the CFI CaRE analogue of the
    paper's §IV.  Shadow return stack, kept on the CPU ({!view.shadow}):
    a call pushes its link address once it retires, and a return must
    target the top, which it pops.  Forward-edge CFI: an indirect call
    or jump must land on an address [valid_target] accepts (the loader
    passes the symbol table — coarse-grained label CFI).  A violation
    stops the run with [Cfi_violation] at the violating instruction,
    before it executes: it is not counted as a step and moves no
    register. *)
