module Rng = Memsim.Rng
module Mem = Memsim.Memory
module Process = Loader.Process
module Oracle = Sanitizer.Oracle
module O = Machine.Outcome

(* Coverage-guided snapshot fuzzer for the Connman parse path.

   The harness is the classic AFL loop specialized to the simulated
   machine: boot the daemon image once, snapshot it copy-on-write, then
   per execution restore (microseconds — only pages the last parse
   dirtied are rewritten, in place), write the mutated datagram into
   the guest rx buffer and call [parse_response] with the edge map's
   [touch] as the hooked loop's [on_step], so every fetched pc feeds
   the map directly.  Inputs that light up new edges join the corpus.
   An exec copies no pages and allocates nothing per instruction on the
   host: the map records only never-seen edges, and restore rewrites in
   place the page buffers an earlier exec unshared.

   Crashing inputs get a second, sanitizer-instrumented run from the
   same snapshot: the taint oracle labels every wire byte, protects the
   [get_name] frame, and its first report names both the detection rule
   that fired and the exact wire offset that reached the overflow — the
   [wire[off]@fuzz -> mem -> pc] provenance chain.  Coverage and taint
   are hooks on the same interpreter loop and could share one run, but
   taint planning costs several times a plain step, so it is paid only
   on the inputs that crash; determinism makes the replay exact.

   Everything — mutation choices, corpus growth, stats — is a pure
   function of [config.seed].  The stats JSON contains no wall-clock
   values, so a re-run with the same seed is byte-identical. *)

type config = {
  arch : Loader.Arch.t;
  version : Connman.Version.t;
  profile : Defense.Profile.t;
  seed : int;
  max_execs : int;
  stop_on_find : bool;  (* stop at the first redzone-write triage *)
}

let default_config =
  {
    arch = Loader.Arch.X86;
    version = Connman.Version.v1_34;
    profile = Defense.Profile.wx;
    seed = 1;
    max_execs = 2_000;
    stop_on_find = false;
  }

type crash = {
  exec : int;
  input : string;
  outcome : string;
  steps : int;
  rule : string option;  (* first detection rule, if the oracle fired *)
  wire_offset : int option;
  provenance : string option;  (* rendered first report *)
}

type stats = {
  cfg : config;
  seed_inputs : int;
  execs : int;
  corpus : int;
  edges : int;
  total_steps : int;
  crashes : crash list;  (* deduped by (outcome, rule), chronological *)
  rediscovered_at : int option;  (* exec index of first redzone-write *)
  first_rule : string option;  (* rule of the chronologically first crash *)
}

(* Benign seed corpus: well-formed responses a real resolver could send,
   compression included (the pointer splice operator needs pointer bytes
   in-distribution to riff on). *)
let benign_seeds () =
  let open Dns in
  let n = Name.of_string in
  let q1 = Packet.query ~id:0x1A2B (n "www.example.com") Packet.A in
  let r1 =
    Packet.response ~query:q1
      [ Packet.a_record (n "www.example.com") ~ttl:300 ~ipv4:0x5DB8D822 ]
  in
  let q2 = Packet.query ~id:0x1A2C (n "cdn.example.net") Packet.A in
  let r2 =
    Packet.response ~query:q2
      [
        Packet.cname_record (n "cdn.example.net") ~ttl:600
          ~target:(n "edge7.cdn.example.net");
        Packet.a_record (n "edge7.cdn.example.net") ~ttl:60 ~ipv4:0xC6336401;
      ]
  in
  let q3 = Packet.query ~id:0x1A2D (n "pool.ntp.org") Packet.A in
  let r3 =
    Packet.response ~query:q3
      [
        Packet.a_record (n "pool.ntp.org") ~ttl:30 ~ipv4:0xA29F1804;
        Packet.a_record (n "pool.ntp.org") ~ttl:30 ~ipv4:0xA29F1805;
        Packet.a_record (n "pool.ntp.org") ~ttl:30 ~ipv4:0xA29F1806;
      ]
  in
  [
    Packet.encode ~compress:true r1;
    Packet.encode ~compress:false r1;
    Packet.encode ~compress:true r2;
    Packet.encode ~compress:true r3;
  ]

let spec config =
  match config.arch with
  | Loader.Arch.X86 ->
      Connman.Program_x86.spec ~version:config.version ~profile:config.profile ()
  | Loader.Arch.Arm ->
      Connman.Program_arm.spec ~version:config.version ~profile:config.profile ()

let fuel = 400_000 (* same budget Dnsproxy gives a parse *)

let run config =
  let rng = Rng.create config.seed in
  let proc = Process.boot (spec config) ~profile:config.profile ~seed:config.seed in
  let snap = Process.snapshot proc in
  let entry = Process.symbol proc "parse_response" in
  let buf = proc.Process.layout.Loader.Layout.heap_base in
  let max_len = min 2048 proc.Process.layout.Loader.Layout.heap_size in
  let cov = Coverage.create () in
  let touch = Coverage.touch cov in
  let oracle = Oracle.create () in
  let geometry = Connman.Frame.geometry config.arch in
  let frame_buffer = Connman.Frame.buffer_addr proc in
  let symbolize = Exploit.Debugger.symbolize proc in
  let corpus = ref [||] in
  let add_to_corpus s = corpus := Array.append !corpus [| s |] in
  let pick_input () = !corpus.(Rng.int rng (Array.length !corpus)) in
  let total_steps = ref 0 in
  (* Coverage-instrumented execution of one input from the snapshot. *)
  let exec_cov input =
    Process.restore proc snap;
    Mem.write_bytes proc.Process.mem buf input;
    Coverage.begin_exec cov;
    let r =
      Process.call proc ~fuel ~on_step:touch ~entry ~args:[ buf; String.length input ]
    in
    total_steps := !total_steps + r.Process.steps;
    r
  in
  (* Sanitizer-instrumented replay for triage: same snapshot, same
     bytes, taint armed. *)
  let triage input =
    Process.restore proc snap;
    Mem.write_bytes proc.Process.mem buf input;
    Oracle.begin_parse oracle;
    Oracle.clear_reports oracle;
    let src = Oracle.new_source oracle ~origin:"fuzz" ~length:(String.length input) in
    Oracle.taint oracle ~src buf ~len:(String.length input);
    Oracle.protect_frame oracle ~buffer:frame_buffer geometry;
    let r =
      Process.call proc ~fuel ~sanitizer:oracle ~entry
        ~args:[ buf; String.length input ]
    in
    total_steps := !total_steps + r.Process.steps;
    Oracle.first_report oracle
  in
  let seeds = benign_seeds () in
  List.iter
    (fun s ->
      let _ = exec_cov s in
      ignore (Coverage.commit cov);
      add_to_corpus s)
    seeds;
  let crashes = ref [] in
  let crash_keys = Hashtbl.create 8 in
  let rediscovered = ref None in
  let first_rule = ref None in
  let execs = ref 0 in
  let stop = ref false in
  while (not !stop) && !execs < config.max_execs do
    incr execs;
    let input = Mutator.mutate rng ~max_len ~pick_other:pick_input (pick_input ()) in
    let r = exec_cov input in
    let fresh = Coverage.commit cov in
    if r.Process.outcome <> O.Halted then begin
      let report = triage input in
      let rule = Option.map (fun (rp : Oracle.report) -> Oracle.kind_name rp.Oracle.kind) report in
      if !first_rule = None then first_rule := rule;
      (match report with
      | Some rp when rp.Oracle.kind = Oracle.Redzone_write ->
          if !rediscovered = None then begin
            rediscovered := Some !execs;
            if config.stop_on_find then stop := true
          end
      | _ -> ());
      let key = (O.to_string r.Process.outcome, rule) in
      if not (Hashtbl.mem crash_keys key) && List.length !crashes < 16 then begin
        Hashtbl.replace crash_keys key ();
        crashes :=
          {
            exec = !execs;
            input;
            outcome = O.to_string r.Process.outcome;
            steps = r.Process.steps;
            rule;
            wire_offset =
              Option.map (fun rp -> Oracle.wire_offset rp) report;
            provenance = Option.map (Oracle.render ~symbolize) report;
          }
          :: !crashes
      end
    end
    else if fresh > 0 then add_to_corpus input
  done;
  {
    cfg = config;
    seed_inputs = List.length seeds;
    execs = !execs;
    corpus = Array.length !corpus;
    edges = Coverage.edges cov;
    total_steps = !total_steps;
    crashes = List.rev !crashes;
    rediscovered_at = !rediscovered;
    first_rule = !first_rule;
  }

(* {1 Deterministic JSON} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  if String.length h mod 2 <> 0 then invalid_arg "Engine.string_of_hex: odd length";
  String.init
    (String.length h / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let opt_int = function None -> "null" | Some n -> string_of_int n

let opt_str = function
  | None -> "null"
  | Some s -> Printf.sprintf "\"%s\"" (json_escape s)

let crash_json c =
  Printf.sprintf
    "{\"exec\":%d,\"outcome\":\"%s\",\"steps\":%d,\"rule\":%s,\"wire_offset\":%s,\"provenance\":%s,\"input_hex\":\"%s\"}"
    c.exec (json_escape c.outcome) c.steps (opt_str c.rule)
    (opt_int c.wire_offset) (opt_str c.provenance) (hex_of_string c.input)

let stats_json st =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"fuzz-stats-v1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"arch\": \"%s\",\n" (Loader.Arch.name st.cfg.arch));
  Buffer.add_string b
    (Printf.sprintf "  \"version\": \"%s\",\n"
       (Connman.Version.to_string st.cfg.version));
  Buffer.add_string b
    (Printf.sprintf "  \"profile\": \"%s\",\n" (Defense.Profile.name st.cfg.profile));
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" st.cfg.seed);
  Buffer.add_string b (Printf.sprintf "  \"max_execs\": %d,\n" st.cfg.max_execs);
  Buffer.add_string b (Printf.sprintf "  \"seed_inputs\": %d,\n" st.seed_inputs);
  Buffer.add_string b (Printf.sprintf "  \"execs\": %d,\n" st.execs);
  Buffer.add_string b (Printf.sprintf "  \"corpus\": %d,\n" st.corpus);
  Buffer.add_string b (Printf.sprintf "  \"edges\": %d,\n" st.edges);
  Buffer.add_string b (Printf.sprintf "  \"total_steps\": %d,\n" st.total_steps);
  Buffer.add_string b
    (Printf.sprintf "  \"rediscovered_at_exec\": %s,\n" (opt_int st.rediscovered_at));
  Buffer.add_string b
    (Printf.sprintf "  \"first_rule\": %s,\n" (opt_str st.first_rule));
  Buffer.add_string b "  \"crashes\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b "    ";
      Buffer.add_string b (crash_json c);
      if i < List.length st.crashes - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    st.crashes;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let pp_stats ppf st =
  Format.fprintf ppf
    "fuzz %s/%s profile=%s seed=%d: %d execs, corpus %d (%d seeds), %d edges@."
    (Loader.Arch.name st.cfg.arch)
    (Connman.Version.to_string st.cfg.version)
    (Defense.Profile.name st.cfg.profile)
    st.cfg.seed st.execs st.corpus st.seed_inputs st.edges;
  (match st.rediscovered_at with
  | Some n ->
      Format.fprintf ppf "  overflow rediscovered at exec %d (rule %s)@." n
        (match st.first_rule with Some r -> r | None -> "?")
  | None -> Format.fprintf ppf "  overflow not rediscovered within budget@.");
  List.iter
    (fun c ->
      Format.fprintf ppf "  crash @exec %d: %s%s@." c.exec c.outcome
        (match c.provenance with
        | Some p -> "\n    " ^ p
        | None -> ""))
    st.crashes
