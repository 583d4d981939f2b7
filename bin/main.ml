(* connman-repro: command-line driver for the reproduction; run with
   --help for the subcommands. *)

open Cmdliner

let arch_conv =
  let parse = function
    | "x86" -> Ok Loader.Arch.X86
    | "arm" | "armv7" -> Ok Loader.Arch.Arm
    | s ->
        Error
          (`Msg
            (Printf.sprintf "unknown architecture: %s (expected x86, arm, or armv7)" s))
  in
  Arg.conv (parse, Loader.Arch.pp)

let profile_conv =
  (* Compound profile strings: a base (none, wx, wx+aslr) optionally
     extended with "+"-separated mitigations, e.g. wx+aslr+shstk+fcfi.
     "aslr" alone keeps its historical meaning of wx+aslr. *)
  let feature p = function
    | "aslr" -> Some (Defense.Profile.with_entropy 12 p)
    | "canary" -> Some (Defense.Profile.with_canary p)
    | "shstk" -> Some (Defense.Profile.with_shadow_stack p)
    | "fcfi" -> Some (Defense.Profile.with_forward_cfi p)
    | "mitigated" -> Some (Defense.Profile.with_mitigations p)
    | "seccomp" -> Some (Defense.Profile.with_seccomp p)
    | _ -> None
  in
  let parse s =
    let err =
      Error
        (`Msg
          (Printf.sprintf
             "unknown profile: %s (expected none, wx, or wx+aslr, optionally \
              extended with +canary, +shstk, +fcfi, +mitigated, \
              +seccomp)"
             s))
    in
    match String.split_on_char '+' s with
    | [] -> err
    | base :: features -> (
        let base =
          match base with
          | "none" -> Some Defense.Profile.none
          | "wx" -> Some Defense.Profile.wx
          | "aslr" -> Some Defense.Profile.wx_aslr
          | _ -> None
        in
        match
          List.fold_left
            (fun acc f -> match acc with None -> None | Some p -> feature p f)
            base features
        with
        | Some p -> Ok p
        | None -> err)
  in
  Arg.conv (parse, Defense.Profile.pp)

let shards_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid shard count: %s (expected a positive integer)" s))
  in
  Arg.conv (parse, Format.pp_print_int)


let seed_term default =
  Arg.(value & opt int default & info [ "seed" ] ~doc:"Deterministic run seed.")

let seed_arg = seed_term 1

let arch_arg =
  Arg.(
    value
    & opt arch_conv Loader.Arch.Arm
    & info [ "arch" ] ~doc:"Target architecture (x86 or arm).")

let profile_arg =
  Arg.(
    value
    & opt profile_conv Defense.Profile.wx_aslr
    & info [ "profile" ] ~doc:"Protection profile (none, wx, wx+aslr).")

let markdown_arg =
  Arg.(
    value & flag
    & info [ "markdown" ]
        ~doc:"Emit the markdown report: a header, the table, and the pass count.")

(* Shared by every command that exports an artifact: [--out] writes it,
   [--check] validates its JSON, and a command exits 1 when its own
   verdict or a requested check fails. *)
let out_arg what =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~doc:(Printf.sprintf "Write %s to a file." what))

let check_arg doc = Arg.(value & flag & info [ "check" ] ~doc)
let validate_doc = "Validate the exported JSON; exit 1 if malformed."

let write_out ?(note = "") path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  Format.printf "wrote %s%s@." path note

(* [replay] re-derives the JSON from a fresh run: determinism means the
   bytes must be equal. *)
let check_json ?replay label json =
  match (Telemetry.Json.validate json, replay) with
  | Error e, _ ->
      Format.eprintf "%s json: INVALID (%s)@." label e;
      false
  | Ok (), None ->
      Format.printf "%s json: well-formed@." label;
      true
  | Ok (), Some again ->
      if again () = Ok json then begin
        Format.printf "%s json: well-formed, byte-identical replay@." label;
        true
      end
      else begin
        Format.eprintf "%s json: replay NOT byte-identical@." label;
        false
      end

let exit_code ok = if ok then 0 else 1
let rows_ok = List.for_all (fun r -> r.Core.Experiments.ok)

(* The header still names the former [report] command: the bytes are
   the ones it wrote. *)
let markdown_report ~seed rows =
  Format.asprintf
    "# Experiment report (seed %d)@.@.Generated by `connman-repro report`; \
     every row is deterministic for the seed.@.@.%a@.%d/%d rows reproduce \
     the paper.@."
    seed Core.Experiments.pp_markdown rows
    (List.length (List.filter (fun r -> r.Core.Experiments.ok) rows))
    (List.length rows)

let experiments_cmd =
  let run seed markdown out =
    let rows = Core.Experiments.all ~seed () in
    let text =
      if markdown then markdown_report ~seed rows
      else Format.asprintf "%a@." Core.Experiments.pp_table rows
    in
    print_string text;
    Option.iter (fun path -> write_out path text) out;
    exit_code (rows_ok rows)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the full experiment index (E0–E8, A1–A8).")
    Term.(const run $ seed_arg $ markdown_arg $ out_arg "the printed table or report")

let matrix_cmd =
  let run seed =
    let rows = Core.Experiments.e1_to_e6_matrix ~seed () in
    Format.printf "%a@." Core.Experiments.pp_table rows;
    exit_code (rows_ok rows)
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Run the six-exploit matrix of §III.")
    Term.(const run $ seed_arg)

let device_config ~seed ~arch profile =
  { Connman.Dnsproxy.default_config with arch; profile; boot_seed = seed }

let pineapple_cmd =
  let run seed arch profile =
    let config = device_config ~seed ~arch profile in
    match Core.Scenario.pineapple_attack ~seed ~config () with
    | Error e ->
        Format.eprintf "payload generation failed: %s@." e;
        1
    | Ok r ->
        Format.printf "%a@." Core.Scenario.pp_result r;
        Format.printf "@.device log:@.";
        List.iter (fun l -> Format.printf "  %s@." l)
          (Core.Device.events r.Core.Scenario.device);
        0
  in
  Cmd.v
    (Cmd.info "pineapple" ~doc:"Run the §III-D Wi-Fi Pineapple scenario.")
    Term.(const run $ seed_arg $ arch_arg $ profile_arg)

let gadgets_cmd =
  let run seed arch limit =
    let d = Connman.Dnsproxy.create (device_config ~seed ~arch Defense.Profile.wx) in
    let proc = Connman.Dnsproxy.process d in
    (match arch with
    | Loader.Arch.X86 ->
        let gs = Exploit.Gadget.scan_x86 proc ~regions:[ ".text" ] in
        Format.printf "%d gadgets in .text (showing %d)@." (List.length gs)
          (min limit (List.length gs));
        List.iteri
          (fun i g -> if i < limit then Format.printf "%a@." Exploit.Gadget.pp_x86 g)
          gs
    | Loader.Arch.Arm ->
        let gs = Exploit.Gadget.scan_arm proc ~regions:[ ".text" ] in
        Format.printf "%d gadgets in .text@." (List.length gs);
        List.iteri
          (fun i g -> if i < limit then Format.printf "%a@." Exploit.Gadget.pp_arm g)
          gs);
    0
  in
  let limit_arg =
    Arg.(value & opt int 40 & info [ "limit" ] ~doc:"Maximum gadgets to print.")
  in
  Cmd.v
    (Cmd.info "gadgets" ~doc:"List code-reuse gadgets in the Connman image.")
    Term.(const run $ seed_arg $ arch_arg $ limit_arg)

let firmware_cmd =
  let run () =
    List.iter
      (fun fw ->
        Format.printf "%a  [%s]@." Core.Firmware.pp fw
          (if Core.Firmware.vulnerable fw then "VULNERABLE" else "patched"))
      Core.Firmware.catalog;
    0
  in
  Cmd.v
    (Cmd.info "firmware" ~doc:"Print the firmware survey catalogue.")
    Term.(const run $ const ())

let layout_cmd =
  let run seed arch profile =
    let d = Connman.Dnsproxy.create (device_config ~seed ~arch profile) in
    Format.printf "%a@." Loader.Process.pp_summary (Connman.Dnsproxy.process d);
    0
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Print a booted connmand's address-space layout.")
    Term.(const run $ seed_arg $ arch_arg $ profile_arg)

let disasm_cmd =
  let run seed arch fn =
    let d = Connman.Dnsproxy.create (device_config ~seed ~arch Defense.Profile.wx) in
    let proc = Connman.Dnsproxy.process d in
    match Loader.Process.symbol_opt proc fn with
    | None ->
        Format.eprintf "unknown function %S@." fn;
        1
    | Some _ ->
        List.iter (Format.printf "%s@.")
          (Exploit.Debugger.disassemble_function proc ~name:fn ~max_insns:128 ());
        0
  in
  let fn_arg =
    Arg.(
      value & pos 0 string "get_name"
      & info [] ~docv:"FUNCTION" ~doc:"Symbol to disassemble.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a function of the Connman image.")
    Term.(const run $ seed_arg $ arch_arg $ fn_arg)

(* Shared by trace/profile/metrics: which exploit-matrix cell to replay
   and under which chaos fault schedule. *)
let cell_arg =
  Arg.(
    value & opt string "E3"
    & info [ "cell" ] ~doc:"Exploit-matrix cell (DoS, E1..E6).")

let schedule_arg =
  Arg.(
    value & opt string "clean"
    & info [ "schedule" ]
        ~doc:
          "Named chaos fault schedule (clean, loss-30, loss-60, loss-90, \
           dup-reorder, corrupt-20, flappy).")

let pp_cell_summary seed (row : Core.Experiments.chaos_row) =
  Format.printf
    "cell %s under %s (seed %d): compromised=%b crashes=%d restarts=%d \
     availability=%.2f@."
    row.Core.Experiments.cell row.Core.Experiments.schedule seed
    row.Core.Experiments.compromised row.Core.Experiments.crashes
    row.Core.Experiments.restarts row.Core.Experiments.availability

let trace_cmd =
  let run seed cell schedule buffer out check limit =
    let trace = Telemetry.Trace.create ~capacity:buffer () in
    match Core.Experiments.run_instrumented_cell ~seed ~schedule ~trace ~cell () with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok (row, _symbolize) ->
        pp_cell_summary seed row;
        Format.printf "%d events emitted, %d retained, %d dropped@."
          (Telemetry.Trace.emitted trace)
          (Telemetry.Trace.length trace)
          (Telemetry.Trace.dropped trace);
        let json = Telemetry.Trace.to_chrome_json trace in
        (match out with
        | Some path ->
            write_out path json
              ~note:
                (Printf.sprintf " (%d bytes; load in ui.perfetto.dev)"
                   (String.length json))
        | None ->
            let evs = Telemetry.Trace.events trace in
            let n = List.length evs in
            List.iteri
              (fun i e ->
                if i < limit / 2 || i >= n - (limit / 2) then
                  Format.printf "%a@." Telemetry.Trace.pp_event e
                else if i = limit / 2 then
                  Format.printf "  ... (%d events elided)@." (n - limit))
              evs);
        exit_code ((not check) || check_json "trace" json)
  in
  let buffer_arg =
    Arg.(
      value & opt int 65536
      & info [ "buffer" ] ~doc:"Ring-buffer capacity in events.")
  in
  let limit_arg =
    Arg.(
      value & opt int 60
      & info [ "limit" ] ~doc:"Timeline lines to print (head/tail split).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay one exploit-matrix cell with the cross-layer tracer attached \
          (cpu, memory, network, daemon, supervisor on one timeline).")
    Term.(
      const run $ seed_arg $ cell_arg $ schedule_arg $ buffer_arg
      $ out_arg "Chrome trace-event JSON (Perfetto-loadable)"
      $ check_arg validate_doc $ limit_arg)

let profile_cmd =
  let run seed cell schedule top folded =
    let profiler = Telemetry.Profile.create () in
    match
      Core.Experiments.run_instrumented_cell ~seed ~schedule ~profiler ~cell ()
    with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok (row, symbolize) ->
        pp_cell_summary seed row;
        Format.printf "@.%a@."
          (Telemetry.Profile.pp_flat ~top ~symbolize)
          profiler;
        Option.iter
          (fun path ->
            write_out path
              (Telemetry.Profile.folded profiler ~symbolize ())
              ~note:" (folded stacks for flamegraph.pl)")
          folded;
        0
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~doc:"Flat-profile rows to print.")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~doc:"Write flamegraph-ready folded stacks to a file.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Replay one exploit-matrix cell with the instruction-level profiler \
          attached and print a per-symbol flat profile.")
    Term.(const run $ seed_arg $ cell_arg $ schedule_arg $ top_arg $ folded_arg)

let botnet_cmd =
  let run seed =
    let pick n = Option.get (Core.Firmware.find n) in
    let firmwares =
      [
        pick "openelec-8"; pick "yocto-build"; pick "nest-like-thermostat";
        pick "ubuntu-mate-rpi3"; pick "tizen-3"; pick "tizen-4";
      ]
    in
    let r = Core.Scenario.botnet_recruitment ~seed ~firmwares () in
    List.iter
      (fun (name, status) ->
        Format.printf "%-28s %s@." name
          (match status with
          | `Recruited -> "RECRUITED"
          | `Crashed -> "crashed"
          | `Resisted -> "resisted"))
      r.Core.Scenario.fleet;
    Format.printf "@.%d/%d recruited@." r.Core.Scenario.recruited
      (List.length r.Core.Scenario.fleet);
    0
  in
  Cmd.v
    (Cmd.info "botnet" ~doc:"Recruit a mixed-firmware fleet over poisoned DNS.")
    Term.(const run $ seed_arg)

let metrics_cmd =
  let run seed queries names capacity shards cell schedule =
    (* Part 1: a synthetic workload on a standalone sharded cache —
       repeated lookups over a name population, filling on miss, with
       ~1 in 8 names known-absent (negatively cached). *)
    let c = Dns.Cache.create ~capacity ?shards () in
    let rng = Memsim.Rng.create seed in
    for q = 1 to queries do
      let now = q / 50 in
      let id = Memsim.Rng.int rng names in
      let name = Printf.sprintf "host-%05d.sim.example" id in
      match Dns.Cache.find c ~now name with
      | Dns.Cache.Hit ip when q mod 16 = 0 ->
          (* an unsolicited refresh: new TTL over the same entry *)
          Dns.Cache.insert c ~now ~name
            ~ttl:(30 + Memsim.Rng.int rng 270)
            ~ipv4:ip
      | Dns.Cache.Hit _ | Dns.Cache.Negative_hit -> ()
      | Dns.Cache.Miss ->
          if id mod 8 = 0 then Dns.Cache.insert_negative c ~now ~name ~ttl:30
          else
            Dns.Cache.insert c ~now ~name
              ~ttl:(30 + Memsim.Rng.int rng 270)
              ~ipv4:(0x0A000000 lor id)
    done;
    Format.printf
      "=== Sharded cache, synthetic workload (seed %d, %d queries over %d \
       names, capacity %d) ===@.@."
      seed queries names capacity;
    Format.printf "%5s %7s %9s %9s %9s %8s %8s %8s %8s@." "shard" "occ" "hits"
      "misses" "neg-hits" "ins" "repl" "evict" "swept";
    Array.iteri
      (fun i (s : Dns.Cache.stats) ->
        Format.printf "%5d %7d %9d %9d %9d %8d %8d %8d %8d@." i
          s.Dns.Cache.occupancy s.Dns.Cache.hits s.Dns.Cache.misses
          s.Dns.Cache.negative_hits s.Dns.Cache.insertions
          s.Dns.Cache.replacements s.Dns.Cache.evictions
          s.Dns.Cache.expired_sweeps)
      (Dns.Cache.shard_stats c);
    let s = Dns.Cache.stats c in
    Format.printf "%5s %7d %9d %9d %9d %8d %8d %8d %8d@." "total"
      s.Dns.Cache.occupancy s.Dns.Cache.hits s.Dns.Cache.misses
      s.Dns.Cache.negative_hits s.Dns.Cache.insertions
      s.Dns.Cache.replacements s.Dns.Cache.evictions s.Dns.Cache.expired_sweeps;
    (* Part 2: the same surface on a live connmand — benign responses
       populate the cache, an NXDOMAIN lands in the negative cache, and
       client lookups hit both. *)
    let d =
      Connman.Dnsproxy.create
        { Connman.Dnsproxy.default_config with Connman.Dnsproxy.boot_seed = seed }
    in
    let live = Dns.Name.of_string "ipv4.connman.net" in
    let query = Connman.Dnsproxy.make_query d live in
    let wire =
      Dns.Packet.encode
        (Dns.Packet.response ~query
           [ Dns.Packet.a_record live ~ttl:300 ~ipv4:0x5DB8D822 ])
    in
    ignore (Connman.Dnsproxy.handle_response d wire);
    let absent = Dns.Name.of_string "no-such-host.connman.net" in
    let nxq = Connman.Dnsproxy.make_query d absent in
    let nxwire =
      Dns.Packet.encode
        {
          Dns.Packet.header =
            {
              nxq.Dns.Packet.header with
              Dns.Packet.qr = true;
              Dns.Packet.ra = true;
              Dns.Packet.rcode = Dns.Packet.NXDomain;
            };
          questions = nxq.Dns.Packet.questions;
          answers = [];
          authorities = [];
          additionals = [];
        }
    in
    ignore (Connman.Dnsproxy.handle_response d nxwire);
    ignore (Connman.Dnsproxy.cache_lookup d live);
    ignore (Connman.Dnsproxy.cache_find d absent);
    ignore (Connman.Dnsproxy.cache_lookup d (Dns.Name.of_string "cold.example"));
    Format.printf "@.=== connmand dnsproxy cache ===@.@.%a@."
      Dns.Cache.pp_stats
      (Connman.Dnsproxy.cache_stats d);
    (* Part 3: everything above plus a whole instrumented chaos cell
       registered into one metrics registry, exposed Prometheus-style. *)
    let reg = Telemetry.Metrics.create () in
    Dns.Cache.register_metrics c reg ~prefix:"synthetic";
    match Core.Experiments.run_instrumented_cell ~seed ~schedule ~metrics:reg ~cell () with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok (row, _) ->
        Format.printf "@.=== instrumented chaos cell ===@.@.";
        pp_cell_summary seed row;
        Format.printf "@.=== metrics (Prometheus text exposition) ===@.@.%s@."
          (Telemetry.Metrics.expose reg);
        0
  in
  let queries_arg =
    Arg.(value & opt int 50_000 & info [ "queries" ] ~doc:"Workload size.")
  in
  let names_arg =
    Arg.(value & opt int 4096 & info [ "names" ] ~doc:"Name population.")
  in
  let capacity_arg =
    Arg.(value & opt int 1024 & info [ "capacity" ] ~doc:"Cache capacity.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~doc:"Shard count (default: derived from capacity).")
  in
  let term =
    Term.(
      const run $ seed_arg $ queries_arg $ names_arg $ capacity_arg
      $ shards_arg $ cell_arg $ schedule_arg)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump DNS-cache statistics and expose the unified metrics registry \
          (caches, netsim packet fates, daemon, supervisor) in Prometheus \
          text format.")
    term


(* --- Campaigns: one record per command, one builder for them all --- *)

(* An extra [--check] step, run once the JSON is well-formed. *)
type 'r verify =
  | Replay  (** re-run the campaign; the JSON must come back byte-identical *)
  | Check of string * ('r -> bool)
      (** [--check] doc, and a check of the report that prints its verdict *)

type ('k, 'r) campaign = {
  name : string;
  doc : string;
  seed : int;  (** default [--seed] *)
  smoke : string option;  (** [--smoke] doc; [None]: no smoke size *)
  knobs : 'k Term.t;  (** the campaign's own flags *)
  run : seed:int -> smoke:bool -> 'k -> ('r, string) result;
  pp : Format.formatter -> 'r -> unit;
  label : string;  (** "<label> json: well-formed" *)
  artifact : string;  (** what [--out] writes *)
  json : 'r -> string;
  ok : 'r -> bool;
  verify : 'r verify option;
}

let campaign_cmd c =
  let run seed smoke knobs out check =
    let once () = c.run ~seed ~smoke knobs in
    match once () with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok r ->
        Format.printf "%a@." c.pp r;
        let json = c.json r in
        Option.iter (fun path -> write_out path json) out;
        let checked =
          (not check)
          ||
          match c.verify with
          | None -> check_json c.label json
          | Some Replay ->
              check_json c.label json ~replay:(fun () -> Result.map c.json (once ()))
          | Some (Check (_, verify)) -> check_json c.label json && verify r
        in
        exit_code (c.ok r && checked)
  in
  let smoke =
    match c.smoke with
    | Some doc -> Arg.(value & flag & info [ "smoke" ] ~doc)
    | None -> Term.const false
  in
  let check_doc =
    match c.verify with
    | None -> validate_doc
    | Some Replay ->
        "Validate the exported JSON and replay the run to prove \
         byte-determinism; exit 1 on any mismatch."
    | Some (Check (doc, _)) -> doc
  in
  Cmd.v (Cmd.info c.name ~doc:c.doc)
    Term.(
      const run $ seed_term c.seed $ smoke $ c.knobs $ out_arg c.artifact
      $ check_arg check_doc)

let shards_arg doc = Arg.(value & opt shards_conv 1 & info [ "shards" ] ~doc)

let sanitize_cmd =
  campaign_cmd
    {
      name = "sanitize";
      doc =
        "Re-run the DoS, the six-exploit matrix, and benign controls under \
         the byte-granular taint sanitizer; print where each attack was \
         first detected (exit 1 if any cell is missed or a benign control \
         reports).";
      seed = 1;
      smoke = None;
      knobs =
        Arg.(
          value & flag
          & info [ "reports" ]
              ~doc:"Also print every sanitizer report (symbolized), per cell.");
      run =
        (fun ~seed ~smoke:_ reports ->
          Ok (seed, reports, Core.Experiments.detection_matrix ~seed ()));
      pp =
        (fun ppf (_, reports, rows) ->
          Core.Experiments.pp_detection ppf rows;
          if reports then
            List.iter
              (fun (r : Core.Experiments.detection_row) ->
                if r.det_rendered <> [] then begin
                  Format.fprintf ppf "@.@.%s (%s, %s):" r.det_cell r.det_arch
                    r.det_profile;
                  List.iter (Format.fprintf ppf "@.  %s") r.det_rendered
                end)
              rows);
      label = "detection";
      artifact = "the detection matrix as JSON";
      json = (fun (seed, _, rows) -> Core.Experiments.detection_json ~seed rows);
      ok = (fun (_, _, rows) -> List.for_all (fun r -> r.Core.Experiments.det_ok) rows);
      verify = None;
    }

let chaos_cmd =
  campaign_cmd
    {
      name = "chaos";
      doc =
        "Replay the exploit matrix and the DoS under deterministic network \
         fault schedules, with connmand supervised.";
      seed = 1;
      smoke = Some "Reduced grid (2 cells × 3 schedules) for CI.";
      knobs =
        shards_arg
          "Scheduler shard count for every cell's world (results are \
           bit-identical across counts).";
      run =
        (fun ~seed ~smoke shards ->
          Ok (Core.Experiments.chaos_campaign ~seed ~smoke ~shards ()));
      pp = Core.Experiments.pp_chaos;
      label = "chaos";
      artifact = "the campaign report as JSON";
      json = Core.Experiments.chaos_json;
      ok = (fun _ -> true);
      verify = None;
    }

let fuzz_cmd =
  let execs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "execs" ] ~doc:"Explicit execution budget per ISA.")
  in
  campaign_cmd
    {
      name = "fuzz";
      doc =
        "Coverage-guided snapshot fuzzing of the Connman parse path on both \
         ISAs: mutate benign DNS responses until the Listing-1 overflow is \
         rediscovered, triaged by the taint oracle with wire-byte \
         provenance (exit 1 if either ISA misses within budget).";
      seed = 1;
      smoke = Some "Reduced budget (4000 executions per ISA) for CI.";
      knobs =
        Term.(
          const (fun shards execs -> (shards, execs))
          $ shards_arg
              "Independent engine instances per ISA, on derived seeds; the \
               campaign passes if every ISA rediscovers in at least one shard."
          $ execs_arg);
      run =
        (fun ~seed ~smoke (shards, execs) ->
          Ok (Core.Experiments.fuzz_campaign ~seed ~smoke ~shards ?execs ()));
      pp = Core.Experiments.pp_fuzz;
      label = "fuzz";
      artifact = "the campaign report as JSON";
      json = Core.Experiments.fuzz_json;
      ok = (fun r -> r.Core.Experiments.fuzz_ok);
      verify = None;
    }

let diversity_cmd =
  let variants_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "variants" ]
          ~doc:"Forked variants per combination (default: 1000; 48 with --smoke).")
  in
  let arch_arg =
    Arg.(
      value
      & opt (some arch_conv) None
      & info [ "arch" ] ~doc:"Restrict to matrix cells of one architecture.")
  in
  let profile_arg =
    Arg.(
      value
      & opt (some profile_conv) None
      & info [ "profile" ] ~doc:"Restrict to matrix cells of one base profile.")
  in
  campaign_cmd
    {
      name = "diversity";
      doc =
        "Run the software-diversity survival matrix: fork a population of \
         seeded layout variants per exploit-matrix cell (and the DoS), \
         replay the stock-image payload against base, diversified, \
         shadow-stack/forward-CFI, and combined defenses, and report \
         per-combination survival probabilities with Wilson intervals plus \
         gadget-survival statistics (exit 1 when a supposedly-mitigated \
         combination still lets the payload through, or when diversity \
         raises survival above the undiversified base).";
      seed = 1;
      smoke = Some "CI-sized run: 48 variants per combination.";
      knobs =
        Term.(
          const (fun variants arch profile -> (variants, arch, profile))
          $ variants_arg $ arch_arg $ profile_arg);
      run =
        (fun ~seed ~smoke (variants, arch, base_profile) ->
          match
            Core.Experiments.diversity_matrix ~seed ~smoke ?variants ?arch
              ?base_profile ()
          with
          | r -> Ok r
          | exception Invalid_argument e -> Error e);
      pp = Core.Experiments.pp_diversity;
      label = "diversity";
      artifact = "the survival matrix as JSON";
      json = Core.Experiments.diversity_json;
      ok = (fun r -> r.Core.Experiments.div_ok);
      verify = Some Replay;
    }

(* Shared by fleet and monitor: size overrides on top of the default or
   smoke config. *)
let fleet_config =
  let size name doc = Arg.(value & opt (some int) None & info [ name ] ~doc) in
  let config devices lans shards ~seed ~smoke =
    let base =
      if smoke then Fleet.Campaign.smoke_config else Fleet.Campaign.default_config
    in
    let value v default = Option.value v ~default in
    {
      base with
      Fleet.Campaign.seed;
      devices = value devices base.Fleet.Campaign.devices;
      lans = value lans base.Fleet.Campaign.lans;
      shards = value shards base.Fleet.Campaign.shards;
    }
  in
  Term.(
    const config
    $ size "devices" "Fleet size (default: 1000; 48 with --smoke)."
    $ size "lans" "LAN count (default: 20; 4 with --smoke)."
    $ Arg.(
        value
        & opt (some shards_conv) None
        & info [ "shards" ]
            ~doc:"Scheduler shard count (default: 4; 2 with --smoke)."))

let fleet_cmd =
  campaign_cmd
    {
      name = "fleet";
      doc =
        "Fleet-scale resilience campaign: fork a device population from \
         copy-on-write snapshots over a sharded network world, mix benign \
         load with exploit and DoS forgery under chaos, supervise every \
         device (quarantine, probation, reintroduction), and roll out the \
         patch canary-first with automatic rollback (exit 1 unless the \
         fleet converges with zero residual compromises).";
      seed = Fleet.Campaign.default_config.Fleet.Campaign.seed;
      smoke =
        Some
          "CI-sized campaign: 48 devices, 4 LANs, 2 shards, canary + one \
           rollout wave.";
      knobs = fleet_config;
      run = (fun ~seed ~smoke config -> Ok (Fleet.Campaign.run (config ~seed ~smoke)));
      pp = Fleet.Campaign.pp;
      label = "fleet";
      artifact = "the campaign report as JSON";
      json = Fleet.Campaign.json;
      ok = Fleet.Campaign.ok;
      verify = None;
    }

(* Monitor's extra check: some alert incident both fired and resolved,
   and its timeline runs from wire-byte provenance to containment. *)
let causal_incident mon =
  let module M = Telemetry.Monitor in
  let incidents = M.incidents mon in
  let resolved = List.exists (fun i -> i.M.i_resolved_us >= 0) incidents in
  if not resolved then
    Format.eprintf "monitor check: no incident both fired and resolved@.";
  let causal =
    List.exists
      (fun i ->
        match i.M.i_timeline with
        | [] -> false
        | first :: _ -> (
            first.M.e_kind = "wire_provenance"
            &&
            match List.rev i.M.i_timeline with
            | last :: _ -> last.M.e_kind = "quarantine" || last.M.e_kind = "rollback"
            | [] -> false))
      incidents
  in
  if not causal then
    Format.eprintf
      "monitor check: no incident timeline runs wire provenance -> \
       containment@.";
  if resolved && causal then
    Format.printf "monitor check: %d incident(s), causal timeline present@."
      (List.length incidents);
  resolved && causal

let monitor_cmd =
  let interval_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "interval" ]
          ~doc:"Scrape interval in simulated microseconds (default 1000000).")
  in
  let rules_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ]
          ~doc:
            "Load recording/alert rules from a file (default: the built-in \
             fleet rule set).")
  in
  campaign_cmd
    {
      name = "monitor";
      doc =
        "Run the fleet campaign under the deterministic flight recorder: \
         scrape every metric series on the simulated clock, evaluate \
         recording and alert rules (threshold, for-duration, hysteresis), \
         correlate firing alerts with the causal event journal into \
         per-incident timelines, and print a text dashboard.  Same seed, \
         same bytes — for any shard count.";
      seed = Fleet.Campaign.default_config.Fleet.Campaign.seed;
      smoke = Some "CI-sized campaign: 48 devices, 4 LANs, 2 shards.";
      knobs =
        Term.(
          const (fun config interval rules -> (config, interval, rules))
          $ fleet_config $ interval_arg $ rules_arg);
      run =
        (fun ~seed ~smoke (config, interval, rules_file) ->
          let mon =
            Telemetry.Monitor.create ?interval_us:interval
              (Telemetry.Metrics.create ())
          in
          let rules =
            match rules_file with
            | None -> Fleet.Campaign.default_rules
            | Some path -> In_channel.with_open_bin path In_channel.input_all
          in
          match Telemetry.Monitor.add_rules mon rules with
          | Error e -> Error ("monitor rules: " ^ e)
          | Ok nrules ->
              let report = Fleet.Campaign.run ~monitor:mon (config ~seed ~smoke) in
              Ok (report, mon, nrules));
      pp =
        (fun ppf (report, mon, nrules) ->
          Format.fprintf ppf "%srules loaded: %d;  campaign: %s"
            (Telemetry.Monitor.dashboard mon)
            nrules
            (if Fleet.Campaign.ok report then "ok" else "NOT ok"));
      label = "monitor";
      artifact = "the monitor-v1 flight record";
      json = (fun (_, mon, _) -> Telemetry.Monitor.json mon);
      ok = (fun (report, _, _) -> Fleet.Campaign.ok report);
      verify =
        Some
          (Check
             ( "Validate the exported JSON and require at least one resolved \
                alert incident whose timeline starts at wire-byte provenance \
                and ends in quarantine or rollback; exit 1 otherwise.",
               fun (_, mon, _) -> causal_incident mon ));
    }

let codec_diff_cmd =
  campaign_cmd
    {
      name = "codec-diff";
      doc =
        "Differentially fuzz the zero-copy DNS codec against the legacy \
         reference: both must agree on decode results, error strings, and \
         re-encoded bytes over benign seeds, the committed crash corpus, \
         crafted hostiles, and a seeded mutation stream (exit 1 on any \
         divergence).";
      seed = 1;
      smoke = None;
      knobs =
        Arg.(
          value & opt int 50_000
          & info [ "execs" ] ~doc:"Mutation-execution budget.");
      run = (fun ~seed ~smoke:_ execs -> Ok (Fuzz.Differential.run ~seed ~execs ()));
      pp = Fuzz.Differential.pp_report;
      label = "codec-diff";
      artifact = "the codec-diff report as JSON";
      json = Fuzz.Differential.report_json;
      ok = (fun r -> r.Fuzz.Differential.divergent = 0);
      verify = None;
    }

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "connman-repro" ~version:"1.0"
      ~doc:
        "Simulation-based reproduction of 'Exploiting Memory Corruption \
         Vulnerabilities in Connman for IoT Devices' (DSN 2019)."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            experiments_cmd;
            matrix_cmd;
            pineapple_cmd;
            gadgets_cmd;
            firmware_cmd;
            layout_cmd;
            disasm_cmd;
            trace_cmd;
            profile_cmd;
            sanitize_cmd;
            botnet_cmd;
            metrics_cmd;
            chaos_cmd;
            fuzz_cmd;
            diversity_cmd;
            fleet_cmd;
            monitor_cmd;
            codec_diff_cmd;
          ]))
