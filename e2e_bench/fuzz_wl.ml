(* The fuzz workload: [Fuzz.Engine.run] on both ISAs with the benign
   seed corpus, a fixed mutation budget and [stop_on_find = false], for
   each of a fixed set of engine seeds.

   The engine seeds are fixed, and the benchmark seed only rotates their
   order, because an exec's cost depends mostly on how many mutated
   inputs run until fuel runs out (each such hang costs tens of ms in
   the coverage call and again in triage): over engine seeds 0-15 one
   run per ISA took 2.1-3.5 s for the same budget.  A benchmark seed
   picking the engine seed would make the throughput measure the seed.

   [mirror] replays the engine loop call for call through the public
   layer functions (mutator, CoW restore, coverage-tapped call, coverage
   commit, sanitizer triage), so the traced run can put a span around
   each call.  Its stats must be byte-identical to the engine's. *)

module E = Fuzz.Engine
module Process = Loader.Process
module Oracle = Sanitizer.Oracle
module O = Machine.Outcome
module Rng = Memsim.Rng

(* Largest rediscovery index over engine seeds 0-99 is 4077 execs. *)
let full_budget = 6000
let archs = Loader.Arch.all
let engine_seeds = [ 1; 2; 3 ]

(* The engine seeds, rotated by the benchmark seed. *)
let rotation ~seed =
  let n = List.length engine_seeds in
  let k = ((seed mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) engine_seeds @ List.filteri (fun i _ -> i < k) engine_seeds

let config ~budget ~arch ~seed =
  { E.default_config with E.arch; seed; max_execs = budget; stop_on_find = false }

(* The output check: the Listing-1 overflow rediscovered, as the
   redzone-write rule. *)
let rediscovered (st : E.stats) = st.E.rediscovered_at <> None

let fuel = 400_000

type mirror = {
  stats : E.stats;
  triage_calls : int;
  cov_steps : int;  (* guest steps in coverage calls; the rest are triage's *)
}

let mirror ?spans cfg =
  let wrap name f = Spans.wrap spans name f in
  let rng = Rng.create cfg.E.seed in
  let spec =
    match cfg.E.arch with
    | Loader.Arch.X86 ->
        Connman.Program_x86.spec ~version:cfg.E.version ~profile:cfg.E.profile ()
    | Loader.Arch.Arm ->
        Connman.Program_arm.spec ~version:cfg.E.version ~profile:cfg.E.profile ()
  in
  let proc =
    wrap "loader.boot" (fun () ->
        Process.boot spec ~profile:cfg.E.profile ~seed:cfg.E.seed)
  in
  let snap = wrap "memsim.snapshot" (fun () -> Process.snapshot proc) in
  let entry = Process.symbol proc "parse_response" in
  let buf = proc.Process.layout.Loader.Layout.heap_base in
  let max_len = min 2048 proc.Process.layout.Loader.Layout.heap_size in
  let cov = Fuzz.Coverage.create () in
  let profile = Telemetry.Profile.create () in
  Telemetry.Profile.set_sink profile (Some (Fuzz.Coverage.touch cov));
  let oracle = Oracle.create () in
  let geometry = Connman.Frame.geometry cfg.E.arch in
  let frame_buffer = Connman.Frame.buffer_addr proc in
  let symbolize = Exploit.Debugger.symbolize proc in
  let corpus = ref [||] in
  let add s = corpus := Array.append !corpus [| s |] in
  let pick () = !corpus.(Rng.int rng (Array.length !corpus)) in
  let total_steps = ref 0 and cov_steps = ref 0 in
  let load input =
    wrap "memsim.restore" (fun () -> Process.restore proc snap);
    wrap "memsim.write_bytes" (fun () ->
        Memsim.Memory.write_bytes proc.Process.mem buf input)
  in
  let exec_cov input =
    load input;
    Telemetry.Profile.clear profile;
    Fuzz.Coverage.begin_exec cov;
    let r =
      wrap "fuzz.coverage_call" (fun () ->
          Process.call proc ~fuel ~profile ~entry
            ~args:[ buf; String.length input ])
    in
    total_steps := !total_steps + r.Process.steps;
    cov_steps := !cov_steps + r.Process.steps;
    r
  in
  let triages = ref 0 in
  let triage input =
    incr triages;
    wrap "sanitizer.triage" (fun () ->
        load input;
        Oracle.begin_parse oracle;
        Oracle.clear_reports oracle;
        let src =
          Oracle.new_source oracle ~origin:"fuzz" ~length:(String.length input)
        in
        Oracle.taint oracle ~src buf ~len:(String.length input);
        Oracle.protect_frame oracle ~buffer:frame_buffer geometry;
        let r =
          Process.call proc ~fuel ~sanitizer:oracle ~entry
            ~args:[ buf; String.length input ]
        in
        total_steps := !total_steps + r.Process.steps;
        Oracle.first_report oracle)
  in
  let commit () = wrap "fuzz.commit" (fun () -> Fuzz.Coverage.commit cov) in
  let seeds = E.benign_seeds () in
  List.iter
    (fun s ->
      ignore (exec_cov s);
      ignore (commit ());
      add s)
    seeds;
  let crashes = ref [] and keys = Hashtbl.create 8 in
  let rediscovered = ref None and first_rule = ref None in
  let execs = ref 0 and stop = ref false in
  while (not !stop) && !execs < cfg.E.max_execs do
    incr execs;
    let input =
      wrap "fuzz.mutate" (fun () ->
          Fuzz.Mutator.mutate rng ~max_len ~pick_other:pick (pick ()))
    in
    let r = exec_cov input in
    let fresh = commit () in
    if r.Process.outcome <> O.Halted then begin
      let report = triage input in
      let rule =
        Option.map (fun (rp : Oracle.report) -> Oracle.kind_name rp.Oracle.kind) report
      in
      if !first_rule = None then first_rule := rule;
      (match report with
      | Some rp when rp.Oracle.kind = Oracle.Redzone_write ->
          if !rediscovered = None then begin
            rediscovered := Some !execs;
            if cfg.E.stop_on_find then stop := true
          end
      | _ -> ());
      let key = (O.to_string r.Process.outcome, rule) in
      if (not (Hashtbl.mem keys key)) && List.length !crashes < 16 then begin
        Hashtbl.replace keys key ();
        crashes :=
          {
            E.exec = !execs;
            input;
            outcome = O.to_string r.Process.outcome;
            steps = r.Process.steps;
            rule;
            wire_offset = Option.map Oracle.wire_offset report;
            provenance = Option.map (Oracle.render ~symbolize) report;
          }
          :: !crashes
      end
    end
    else if fresh > 0 then add input
  done;
  {
    stats =
      {
        E.cfg;
        seed_inputs = List.length seeds;
        execs = !execs;
        corpus = Array.length !corpus;
        edges = Fuzz.Coverage.edges cov;
        total_steps = !total_steps;
        crashes = List.rev !crashes;
        rediscovered_at = !rediscovered;
        first_rule = !first_rule;
      };
    triage_calls = !triages;
    cov_steps = !cov_steps;
  }
