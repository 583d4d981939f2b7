(** The experiment index: every §III result, the §III-D remote delivery,
    the firmware survey, and the §IV mitigation ablations — each
    reproduced as a checkable row (see DESIGN.md's experiment table).

    Rows carry the expected outcome (the paper's claim) and the observed
    one; [ok] means they agree.  [all] is what [bench/main.exe] and
    EXPERIMENTS.md report. *)

type row = {
  id : string;  (** e.g. "E5" *)
  section : string;  (** paper section, e.g. "§III-C1" *)
  description : string;
  expected : string;
  observed : string;
  ok : bool;
}

val fire :
  ?strategy:Exploit.Autogen.strategy ->
  Connman.Dnsproxy.t ->
  (Exploit.Payload.t * Connman.Dnsproxy.disposition, string) result
(** Generate a payload against an attacker's analysis boot of the same
    firmware and fire it at the device over a forged response.  Exposed
    for the telemetry differential tests: the exploit-matrix outcome of
    a device must be identical with tracing attached or not. *)

val disposition_word : Connman.Dnsproxy.disposition -> string
(** The observed-outcome vocabulary of the result rows ("parsed",
    "dropped", "crash", "root shell", "code execution", "blocked"). *)

val matrix_cells :
  (string
  * string
  * Loader.Arch.t
  * Defense.Profile.t
  * Exploit.Autogen.strategy
  * string)
  list
(** The six-exploit matrix: id, paper section, arch, protection profile,
    payload strategy, description. *)

val e1_to_e6_matrix : ?seed:int -> unit -> row list
(** The six-exploit matrix alone: the identity row of the ablation
    table over {!matrix_cells}. *)

val all : ?seed:int -> unit -> row list
(** Every experiment, in index order: E0–E8, then the A1–A8 ablations.
    E1–E6 and the A1 (shadow stack), A3 (canary) and A7 (seccomp)
    ablations are rows of one table over {!matrix_cells}, each a profile
    transform and an expected word; the entropy sweep and diversity run
    at reduced trial counts suitable for a test/bench pass. *)

val pp_table : Format.formatter -> row list -> unit
val pp_markdown : Format.formatter -> row list -> unit

(** {2 Chaos campaign}

    The §III matrix (plus the DoS cell) replayed over an impaired
    network: victim and malicious resolver alone on a LAN whose
    {!Netsim.Faults.policy} comes from a named schedule, connmand under
    a {!Supervisor}.  Each run has an attack phase (forged responses)
    followed by a benign phase that measures availability.  All
    randomness is seed-derived: the same seed yields a byte-identical
    {!chaos_json}. *)

type chaos_row = {
  cell : string;  (** "DoS" or "E1".."E6" *)
  schedule : string;  (** fault-schedule name, e.g. "loss-60" *)
  compromised : bool;  (** any response reached code execution *)
  crashes : int;  (** supervisor-observed daemon deaths *)
  restarts : int;
  gave_up : bool;  (** crash loop tripped StartLimitBurst *)
  availability : float;  (** benign lookups answered / attempted, [0,1] *)
  delivered : int;  (** world stats for the whole run… *)
  dropped : int;
  dropped_fault : int;
  dropped_link : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
}

type sweep_point = { sweep_loss : float; sweep_trials : int; sweep_hits : int }

type chaos_report = {
  chaos_seed : int;
  chaos_smoke : bool;
  chaos_shards : int;  (** scheduler shard count of every cell's world *)
  chaos_rows : chaos_row list;
  chaos_sweep : sweep_point list;
      (** exploit-delivery success vs link loss (0/0.3/0.6/0.9) *)
}

val chaos_schedules : (string * Netsim.Faults.policy) list
(** The named fault schedules of the full grid. *)

val run_instrumented_cell :
  ?seed:int ->
  ?schedule:string ->
  ?shards:int ->
  ?trace:Telemetry.Trace.t ->
  ?profiler:Telemetry.Profile.t ->
  ?metrics:Telemetry.Metrics.t ->
  ?monitor:Telemetry.Monitor.t ->
  cell:string ->
  unit ->
  (chaos_row * (int -> string), string) result
(** One chaos cell ("DoS" or "E1".."E6") under one named schedule with
    the telemetry layer attached end to end: the trace sink on the world
    (net events), the daemon (daemon/cpu/mem events), and the
    supervisor; the profiler on the machine-level parse; the metrics
    registry over all of them.  Deterministic: the same seed with the
    same sinks emits the same events in the same order.  Returns the
    chaos row plus a symbolizer over the daemon's current process (for
    rendering profiles).  [Error] names an unknown cell or schedule.

    When [monitor] is given, the same probes also register into its
    registry (deduped against [?metrics]), the supervisor journals its
    lifecycle into it, and a world barrier scrapes it every
    {!Telemetry.Monitor.interval_us} — the single-cell flight-recorder
    hookup, mirroring the fleet campaign's. *)

val chaos_campaign :
  ?seed:int -> ?smoke:bool -> ?shards:int -> unit -> chaos_report
(** Run the grid ([smoke] cuts it to 2 cells × 3 schedules and 3 sweep
    trials for CI).  [shards] (default 1) builds every cell's world
    sharded; a cell's single LAN stays on shard 0, so results replay
    bit-identically across shard counts.  Raises [Invalid_argument] on
    a non-positive count. *)

val chaos_json : chaos_report -> string
(** Deterministic serialization (fixed field order, fixed float
    precision): identical seeds give identical bytes. *)

val pp_chaos : Format.formatter -> chaos_report -> unit

(** {2 Detection matrix}

    The DoS cell, the six-exploit matrix, and two benign controls re-run
    with the {!Sanitizer.Oracle} attached to the daemon.  Each row
    records the (unchanged) disposition, how many sanitizer reports
    fired, and the {e first} detection point — the earliest moment the
    taint rules could have stopped the attack.  [det_ok] demands that
    every attack cell is caught no later than the control-flow hijack
    ([tainted-pc]) and that benign traffic produces zero reports. *)

type detection_row = {
  det_cell : string;  (** "DoS", "E1".."E6", "benign-x86", "benign-arm" *)
  det_arch : string;
  det_profile : string;
  det_disposition : string;  (** {!disposition_word} of the sanitized run *)
  det_reports : int;
  det_counts : (string * int) list;  (** per-kind counts, severity order *)
  det_first : Sanitizer.Oracle.report option;  (** earliest detection *)
  det_first_symbol : string;  (** symbolized pc of that report, [""] if none *)
  det_rendered : string list;  (** every report, rendered and symbolized *)
  det_ok : bool;
}

val detection_matrix : ?seed:int -> unit -> detection_row list
(** Deterministic: identical seeds give identical rows (and therefore
    identical {!detection_json} bytes). *)

val detection_json : ?seed:int -> detection_row list -> string
(** Deterministic serialization ([detection-matrix-v1] schema, fixed
    field order). *)

val pp_detection : Format.formatter -> detection_row list -> unit

(** {2 Fuzz campaign}

    Coverage-guided rediscovery of the Listing-1 overflow
    ({!Fuzz.Engine}) on both ISAs, from benign seed corpora, with the
    taint oracle triaging every crash.  Measures executions-to-
    rediscovery and which detection rule fires first.  All randomness is
    seed-derived: identical seeds give byte-identical {!fuzz_json}. *)

type fuzz_report = {
  fuzz_seed : int;
  fuzz_smoke : bool;
  fuzz_shards : int;  (** independent engine instances per ISA *)
  fuzz_runs : Fuzz.Engine.stats list;
      (** x86 shards (seed-derived order) first, then ARM shards *)
  fuzz_ok : bool;
      (** every ISA rediscovered the overflow in at least one shard *)
}

val fuzz_campaign :
  ?seed:int -> ?smoke:bool -> ?shards:int -> ?execs:int -> unit -> fuzz_report
(** [smoke] caps the budget at 4000 executions per ISA (vs 20000), and
    [execs] overrides either cap outright; the default seed rediscovers
    at execution 954 on both ISAs.  [shards] (default 1) runs that many
    independent engine instances per ISA on derived seeds
    ([seed + 7919*i], the netsim shard idiom).  Raises
    [Invalid_argument] on a non-positive shard count. *)

val fuzz_json : fuzz_report -> string
(** Deterministic serialization ([fuzz-campaign-v1] schema, embedding
    each run's [fuzz-stats-v1] document verbatim). *)

val pp_fuzz : Format.formatter -> fuzz_report -> unit

(** {2 V: diversity survival matrix}

    The headline diversity experiment: every chaos cell (DoS plus the
    six-exploit matrix) fired at [n] copy-on-write forks of a template
    device under four defense combinations — the cell's own profile
    ("base"), plus per-boot layout diversity ("div",
    {!Connman.Dnsproxy.fork_diversified} with one {!Diversity.Pool}
    seed per device), plus the enforced embedded mitigations ("shstk",
    shadow return stack + forward-edge CFI, {!Machine.Hook.cfi}), plus
    both ("div+shstk").  Reports survival
    probability with Wilson confidence intervals per combination, and
    per-variant diversification stats (layout moves, padding,
    {!Defense.Equiv} rewrite counts, gadget count and gadget-address
    survival from the {!Exploit.Gadget} scanner).  All randomness is
    seed-derived: identical seeds give byte-identical
    {!diversity_json}. *)

type variant_stats = {
  var_seed : int;  (** the variant's diversity seed *)
  var_moved : int;  (** chunks displaced by the layout shuffle *)
  var_pad_bytes : int;
  var_rewrites : int;  (** {!Defense.Equiv} substitutions applied *)
  var_gadgets : int;  (** gadget count in the variant's .text *)
  var_gadget_survival : float;
      (** fraction of the stock image's gadget addresses still gadget
          starts in this variant *)
}

type div_combo = {
  combo : string;  (** ["base"], ["div"], ["shstk"], or ["div+shstk"] *)
  combo_profile : string;
  combo_diversified : bool;
  combo_trials : int;
  combo_successes : int;  (** attacks that achieved their goal *)
  combo_rate : float;
  combo_ci_low : float;
  combo_ci_high : float;  (** 95% Wilson interval around [combo_rate] *)
  combo_mitigations : string list;
      (** {!Exploit.Autogen.mitigated_by}: the defenses expected to stop
          this cell; empty means expected to succeed *)
  combo_ok : bool;
      (** observed matches expectation: mitigated combos block every
          trial, unmitigated undiversified combos succeed every trial,
          DoS kills the daemon everywhere, and the diversified rate
          never exceeds the base rate *)
  combo_gadgets_baseline : int;
  combo_gadget_survival_mean : float;
  combo_moved_mean : float;
  combo_pad_mean : float;
  combo_rewrites_mean : float;
  combo_variant_sample : variant_stats list;
      (** the first few variants, embedded in the JSON *)
}

type div_cell = {
  div_id : string;  (** ["DoS"], ["E1"].."E6" *)
  div_arch : string;
  div_base_profile : string;
  div_combos : div_combo list;
}

type div_report = {
  div_seed : int;
  div_n : int;  (** variants per cell × combination *)
  div_smoke : bool;
  div_cells : div_cell list;
  div_ok : bool;
}

val diversity_matrix :
  ?seed:int ->
  ?smoke:bool ->
  ?variants:int ->
  ?arch:Loader.Arch.t ->
  ?base_profile:Defense.Profile.t ->
  unit ->
  div_report
(** [variants] defaults to 1000 (48 under [smoke]).  The payload for
    each cell is built once against an undiversified analysis boot of
    the cell's base profile — the attacker studied a stock image — and
    the combinations measure how far that one payload carries.  [arch]
    and [base_profile] (matched by {!Defense.Profile.name}) restrict
    the run to the matching matrix cells.  Raises [Invalid_argument]
    on a non-positive variant count or an empty cell selection, and
    [Failure] if payload generation fails for a cell. *)

val diversity_json : div_report -> string
(** Deterministic serialization ([diversity-matrix-v1] schema): fixed
    key order, [%.4f] floats — the same seed always yields the same
    bytes. *)

val pp_diversity : Format.formatter -> div_report -> unit
