(* Benchmark harness.

   Part 1 regenerates every experiment row of the paper (the §III matrix,
   §III-D delivery, the firmware survey, and the §IV ablations) — the
   "tables" of this experience report.

   Part 2 times the moving parts with Bechamel: wire codec, label
   planning, machine-level parsing, process boot, gadget scanning,
   payload generation, and the end-to-end exploits.

     dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Dnsproxy = Connman.Dnsproxy
module Autogen = Exploit.Autogen
module Profile = Defense.Profile

let lookup = Dns.Name.of_string "ipv4.connman.net"

(* ------------------------------------------------------------------ *)
(* Part 1: the experiment tables                                       *)
(* ------------------------------------------------------------------ *)

let print_experiments () =
  Format.printf "@.=== Experiment reproduction (paper rows vs observed) ===@.@.";
  let rows = Core.Experiments.all ~seed:1 () in
  Format.printf "%a@." Core.Experiments.pp_table rows

(* ------------------------------------------------------------------ *)
(* Part 2: timing benches                                              *)
(* ------------------------------------------------------------------ *)

let mk_config ?(version = Connman.Version.v1_34) arch profile seed =
  { Dnsproxy.version; arch; profile; boot_seed = seed; diversity_seed = None }

let benign_wire d =
  let query = Dnsproxy.make_query d lookup in
  Dns.Packet.encode
    (Dns.Packet.response ~query
       [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8D822 ])

(* Pre-built inputs shared across iterations. *)
let benign_msg =
  Dns.Packet.response
    ~query:(Dns.Packet.query ~id:77 lookup Dns.Packet.A)
    [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8D822 ]

let benign_bytes = Dns.Packet.encode benign_msg

let test_dns_encode =
  Test.make ~name:"dns/encode"
    (Staged.stage (fun () -> ignore (Dns.Packet.encode benign_msg)))

let test_dns_decode =
  Test.make ~name:"dns/decode"
    (Staged.stage (fun () -> ignore (Dns.Packet.decode benign_bytes)))

let chain_spec =
  Dns.Craft.spec_concat
    [
      Dns.Craft.spec_any 1024;
      Dns.Craft.spec_fixed (String.make 8 '\x00');
      Dns.Craft.spec_any 28;
      Dns.Craft.spec_fixed "\x8c\x01\x01\x00";
      Dns.Craft.spec_any 120;
    ]

let test_plan_labels =
  Test.make ~name:"dns/plan-labels-1k"
    (Staged.stage (fun () -> ignore (Dns.Craft.plan_labels chain_spec)))

(* Machine-level parse of a benign response: per-arch instruction counts
   are fixed, so time/op measures emulator speed on the real workload. *)
let parse_bench arch =
  let d = Dnsproxy.create (mk_config arch Profile.wx 9) in
  let proc = Dnsproxy.process d in
  let entry = Loader.Process.symbol proc "parse_response" in
  let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
  let wire = benign_wire d in
  Memsim.Memory.write_bytes proc.Loader.Process.mem buf wire;
  fun () ->
    ignore
      (Loader.Process.call proc ~fuel:100_000 ~entry
         ~args:[ buf; String.length wire ])

let test_parse_x86 =
  Test.make ~name:"cpu/parse-response-x86" (Staged.stage (parse_bench Loader.Arch.X86))

let test_parse_arm =
  Test.make ~name:"cpu/parse-response-arm" (Staged.stage (parse_bench Loader.Arch.Arm))

let boot_bench arch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    ignore (Dnsproxy.create (mk_config arch Profile.wx_aslr !counter))

let test_boot_x86 =
  Test.make ~name:"boot/connmand-x86" (Staged.stage (boot_bench Loader.Arch.X86))

let test_boot_arm =
  Test.make ~name:"boot/connmand-arm" (Staged.stage (boot_bench Loader.Arch.Arm))

let gadget_bench arch =
  let proc = Dnsproxy.process (Dnsproxy.create (mk_config arch Profile.wx 9)) in
  match arch with
  | Loader.Arch.X86 ->
      fun () -> ignore (Exploit.Gadget.scan_x86 proc ~regions:[ ".text" ])
  | Loader.Arch.Arm ->
      fun () -> ignore (Exploit.Gadget.scan_arm proc ~regions:[ ".text" ])

let test_gadgets_x86 =
  Test.make ~name:"gadget/scan-x86" (Staged.stage (gadget_bench Loader.Arch.X86))

let test_gadgets_arm =
  Test.make ~name:"gadget/scan-arm" (Staged.stage (gadget_bench Loader.Arch.Arm))

(* Payload generation per experiment cell (E1–E6): the attacker-side
   offline cost. *)
let payload_bench (arch, profile, strategy) =
  let analysis = Dnsproxy.process (Dnsproxy.create (mk_config arch profile 9)) in
  fun () ->
    match Autogen.generate ~analysis:(Exploit.Target.connman analysis) ~strategy () with
    | Ok _ -> ()
    | Error e -> failwith e

let payload_tests =
  List.map
    (fun (name, cell) -> Test.make ~name (Staged.stage (payload_bench cell)))
    [
      ("payload/E1-inject-x86", (Loader.Arch.X86, Profile.none, Autogen.Code_injection));
      ("payload/E2-inject-arm", (Loader.Arch.Arm, Profile.none, Autogen.Code_injection));
      ("payload/E3-ret2libc-x86", (Loader.Arch.X86, Profile.wx, Autogen.Ret2libc));
      ("payload/E4-ropwx-arm", (Loader.Arch.Arm, Profile.wx, Autogen.Rop_wx));
      ("payload/E5-ropaslr-x86", (Loader.Arch.X86, Profile.wx_aslr, Autogen.Rop_aslr));
      ("payload/E6-ropaslr-arm", (Loader.Arch.Arm, Profile.wx_aslr, Autogen.Rop_aslr));
    ]

(* End-to-end exploit latency: boot a fresh victim and pop a shell. *)
let end_to_end_bench (arch, profile, strategy) =
  let analysis = Dnsproxy.process (Dnsproxy.create (mk_config arch profile 9)) in
  let _, raw_name =
    match Autogen.generate ~analysis:(Exploit.Target.connman analysis) ~strategy () with
    | Ok r -> r
    | Error e -> failwith e
  in
  let counter = ref 100 in
  fun () ->
    incr counter;
    let victim = Dnsproxy.create (mk_config arch profile !counter) in
    let query = Dnsproxy.make_query victim lookup in
    match Dnsproxy.handle_response victim (Autogen.response_for ~query ~raw_name) with
    | Dnsproxy.Compromised _ -> ()
    | other ->
        failwith (Format.asprintf "%a" Dnsproxy.pp_disposition other)

let end_to_end_tests =
  List.map
    (fun (name, cell) -> Test.make ~name (Staged.stage (end_to_end_bench cell)))
    [
      ("exploit/E5-end-to-end", (Loader.Arch.X86, Profile.wx_aslr, Autogen.Rop_aslr));
      ("exploit/E6-end-to-end", (Loader.Arch.Arm, Profile.wx_aslr, Autogen.Rop_aslr));
    ]

(* §V adaptation benches: parse + end-to-end exploit on the other targets. *)
let dnsmasq_parse_bench arch =
  let module D = Dnsmasq.Daemon in
  let d =
    D.create { D.patched = false; arch; profile = Profile.wx; boot_seed = 9 }
  in
  fun () ->
    let query = D.make_query d lookup in
    let wire =
      Dns.Packet.encode
        (Dns.Packet.response ~query
           [ Dns.Packet.a_record lookup ~ttl:60 ~ipv4:1 ])
    in
    ignore (D.handle_response d wire)

let test_dnsmasq_parse =
  Test.make ~name:"cpu/parse-dnsmasq-arm"
    (Staged.stage (dnsmasq_parse_bench Loader.Arch.Arm))

let tcpsvc_exploit_bench () =
  let module D = Tcpsvc.Daemon in
  let arch = Loader.Arch.Arm and profile = Profile.wx_aslr in
  let analysis =
    D.process (D.create { D.patched = false; arch; profile; boot_seed = 9 })
  in
  let target =
    Exploit.Target.make
      ~frame:(Tcpsvc.Frame.geometry arch)
      ~buffer_addr:(Tcpsvc.Frame.buffer_addr analysis)
      analysis
  in
  let payload =
    match Autogen.build ~analysis:target Autogen.Rop_aslr with
    | Ok p -> Exploit.Payload.to_raw_bytes p
    | Error _ -> failwith "tcpsvc payload"
  in
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d = D.create { D.patched = false; arch; profile; boot_seed = !counter } in
    match D.handle_frame d (D.frame ~tag:payload) with
    | D.Compromised _ -> ()
    | _ -> failwith "tcpsvc exploit failed"

let test_tcpsvc_exploit =
  Test.make ~name:"exploit/tcpsvc-rop-aslr-arm" (Staged.stage (tcpsvc_exploit_bench ()))

let test_pineapple =
  Test.make ~name:"scenario/pineapple"
    (let counter = ref 0 in
     Staged.stage (fun () ->
         incr counter;
         let config = mk_config Loader.Arch.Arm Profile.wx_aslr !counter in
         match Core.Scenario.pineapple_attack ~seed:!counter ~config () with
         | Ok _ -> ()
         | Error e -> failwith e))

(* ------------------------------------------------------------------ *)
(* Cache benches                                                       *)
(* ------------------------------------------------------------------ *)

let cache_name i = Printf.sprintf "host-%07d.bench.example" i

(* Fixtures are lazy (the default bench run shouldn't pay 100k prefills
   unless the cache benches execute) but are forced *before* Bechamel
   measures, so prefill cost never pollutes the per-op estimates.  Each
   bench gets its own fixture: they mutate the cache they run against. *)
let prefilled_cache n =
  lazy
    (let names = Array.init n cache_name in
     let c = Dns.Cache.create ~capacity:n () in
     Array.iteri
       (fun i name ->
         Dns.Cache.insert c ~now:0 ~name ~ttl:1_000_000 ~ipv4:(i + 1))
       names;
     (c, names))

let fx_insert_1k = prefilled_cache 1_000
let fx_insert_100k = prefilled_cache 100_000
let fx_lookup_1k = prefilled_cache 1_000
let fx_lookup_100k = prefilled_cache 100_000
let fx_evict_1k = prefilled_cache 1_000
let fx_evict_100k = prefilled_cache 100_000

let cache_fixtures =
  [
    fx_insert_1k; fx_insert_100k; fx_lookup_1k; fx_lookup_100k; fx_evict_1k;
    fx_evict_100k;
  ]

let force_cache_fixtures () =
  List.iter (fun fx -> ignore (Lazy.force fx)) cache_fixtures

(* Steady-state store over an existing key (the replacement path). *)
let cache_insert_bench fx =
  let k = ref 0 in
  fun () ->
    let c, names = Lazy.force fx in
    k := (!k + 1) mod Array.length names;
    Dns.Cache.insert c ~now:1 ~name:names.(!k) ~ttl:1_000_000 ~ipv4:7

let cache_lookup_bench fx =
  let k = ref 0 in
  fun () ->
    let c, names = Lazy.force fx in
    k := (!k + 1) mod Array.length names;
    ignore (Dns.Cache.lookup c ~now:1 names.(!k))

(* Every insert lands on a full cache of live entries and must evict a
   victim — the O(n) Hashtbl.fold hot spot of the seed implementation,
   now O(log n) against the shard's expiry heap. *)
let cache_evict_bench fx =
  let k = ref 0 in
  fun () ->
    let c, _ = Lazy.force fx in
    incr k;
    Dns.Cache.insert c ~now:1
      ~name:(Printf.sprintf "fresh-%09d.bench.example" !k)
      ~ttl:1_000_000 ~ipv4:!k

(* High-churn episode on the Netsim event clock: bursts of mixed ops
   with short TTLs while simulated time advances, so expiry sweeps,
   evictions, replacements, and negative entries all fire. *)
let cache_churn_bench () =
  let episode = ref 0 in
  fun () ->
    incr episode;
    let sim = Netsim.Sim.create ~seed:!episode () in
    let c = Dns.Cache.create ~capacity:512 () in
    let rng = Netsim.Sim.rng sim in
    let remaining = ref 64 in
    let rec burst sim =
      let now = Netsim.Sim.now sim / 1_000_000 in
      for _ = 1 to 32 do
        let name = cache_name (Memsim.Rng.int rng 2048) in
        match Memsim.Rng.int rng 4 with
        | 0 ->
            Dns.Cache.insert c ~now ~name
              ~ttl:(1 + Memsim.Rng.int rng 8)
              ~ipv4:1
        | 1 ->
            Dns.Cache.insert_negative c ~now ~name
              ~ttl:(1 + Memsim.Rng.int rng 4)
        | _ -> ignore (Dns.Cache.lookup c ~now name)
      done;
      decr remaining;
      if !remaining > 0 then Netsim.Sim.schedule sim ~delay:500_000 burst
    in
    Netsim.Sim.schedule sim ~delay:0 burst;
    ignore (Netsim.Sim.run sim)

let cache_tests =
  [
    Test.make ~name:"cache/insert-1k"
      (Staged.stage (cache_insert_bench fx_insert_1k));
    Test.make ~name:"cache/insert-100k"
      (Staged.stage (cache_insert_bench fx_insert_100k));
    Test.make ~name:"cache/lookup-1k"
      (Staged.stage (cache_lookup_bench fx_lookup_1k));
    Test.make ~name:"cache/lookup-100k"
      (Staged.stage (cache_lookup_bench fx_lookup_100k));
    Test.make ~name:"cache/insert-at-capacity-1k"
      (Staged.stage (cache_evict_bench fx_evict_1k));
    Test.make ~name:"cache/insert-at-capacity-100k"
      (Staged.stage (cache_evict_bench fx_evict_100k));
    Test.make ~name:"cache/churn-sim" (Staged.stage (cache_churn_bench ()));
  ]

let all_tests =
  [
    test_dns_encode;
    test_dns_decode;
    test_plan_labels;
    test_parse_x86;
    test_parse_arm;
    test_boot_x86;
    test_boot_arm;
    test_gadgets_x86;
    test_gadgets_arm;
  ]
  @ payload_tests @ end_to_end_tests
  @ [ test_dnsmasq_parse; test_tcpsvc_exploit; test_pineapple ]
  @ cache_tests

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

(* Time one Bechamel test element: (ns/run, r²). *)
let measure_elt cfg elt =
  let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
  let result = Analyze.one ols Instance.monotonic_clock raw in
  let nanos =
    match Analyze.OLS.estimates result with Some [ est ] -> est | _ -> nan
  in
  let r2 = Option.value (Analyze.OLS.r_square result) ~default:nan in
  (nanos, r2)

let pretty_nanos nanos =
  if nanos > 1e9 then Printf.sprintf "%8.3f  s" (nanos /. 1e9)
  else if nanos > 1e6 then Printf.sprintf "%8.3f ms" (nanos /. 1e6)
  else if nanos > 1e3 then Printf.sprintf "%8.3f us" (nanos /. 1e3)
  else Printf.sprintf "%8.1f ns" nanos

let run_benchmarks () =
  Format.printf "@.=== Timing benches (Bechamel, monotonic clock) ===@.@.";
  force_cache_fixtures ();
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  Format.printf "%-32s %16s %12s@." "bench" "time/run" "r^2";
  Format.printf "%s@." (String.make 64 '-');
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let nanos, r2 = measure_elt cfg elt in
          Format.printf "%-32s %16s %12.4f@." (Test.Elt.name elt)
            (pretty_nanos nanos) r2)
        (Test.elements test))
    all_tests

(* ------------------------------------------------------------------ *)
(* Shared bench JSON schema ("bench-suite-v1")                         *)
(*                                                                     *)
(* Every BENCH_*.json file is the same shape: run metadata (suite,     *)
(* smoke flag, extra suite-specific keys) plus a flat result list of   *)
(* {name, unit, value, ...extras}.  Downstream tooling reads one       *)
(* schema instead of three.                                            *)
(* ------------------------------------------------------------------ *)

type bench_row = {
  br_name : string;
  br_unit : string;  (** "ns_per_op", "ns_per_run", "ratio", ... *)
  br_value : float;
  br_extra : (string * float) list;  (** e.g. ops_per_sec, r_square *)
}

let bench_row ?(extra = []) name unit value =
  { br_name = name; br_unit = unit; br_value = value; br_extra = extra }

let write_bench_json ~suite ~smoke ?(meta = []) ~out rows =
  let safe f = if Float.is_nan f then 0.0 else f in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"bench-suite-v1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"suite\": %S,\n" suite);
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %S: %s,\n" k v))
    meta;
  Buffer.add_string buf "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"value\": %.4f"
           r.br_name r.br_unit (safe r.br_value));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (Printf.sprintf ", %S: %.4f" k (safe v)))
        r.br_extra;
      Buffer.add_string buf
        (Printf.sprintf "}%s\n" (if i < n - 1 then "," else "")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let json = Buffer.contents buf in
  (match Telemetry.Json.validate json with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: emitted invalid JSON (%s)" out e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Format.printf "@.wrote %s@." out

(* ------------------------------------------------------------------ *)
(* Cache perf trajectory: BENCH_cache.json                             *)
(*                                                                     *)
(*   dune exec bench/main.exe -- cache            (full measurement)   *)
(*   dune exec bench/main.exe -- cache --smoke    (few iterations)     *)
(*   dune build @cache-bench-smoke                (dune smoke target)  *)
(* ------------------------------------------------------------------ *)

let run_cache_json ~smoke ~out () =
  force_cache_fixtures ();
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.01) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  Format.printf "=== Cache benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  let rows =
    List.concat_map
      (fun test ->
        List.map
          (fun elt ->
            let nanos, r2 = measure_elt cfg elt in
            let name = Test.Elt.name elt in
            Format.printf "%-32s %16s %12.4f@." name (pretty_nanos nanos) r2;
            (name, nanos, r2))
          (Test.elements test))
      cache_tests
  in
  write_bench_json ~suite:"cache" ~smoke ~out
    (List.map
       (fun (name, nanos, r2) ->
         let nanos = if Float.is_nan nanos then 0.0 else nanos in
         let ops = if nanos > 0.0 then 1e9 /. nanos else 0.0 in
         bench_row name "ns_per_op" nanos
           ~extra:[ ("ops_per_sec", ops); ("r_square", r2) ])
       rows)

(* ------------------------------------------------------------------ *)
(* CPU interpreter benches: BENCH_cpu.json                             *)
(*                                                                     *)
(*   dune exec bench/main.exe -- cpu              (full measurement)   *)
(*   dune exec bench/main.exe -- cpu --smoke      (few iterations)     *)
(*   dune build @cpu-bench-smoke                  (dune smoke target)  *)
(*                                                                     *)
(* Each workload is a counted loop of a few thousand instructions run  *)
(* to [Hlt] / [svc] on a private address space; the harness resets the *)
(* registers and flags between invocations so Bechamel measures the    *)
(* steady state.  Every workload is timed twice — decoded-instruction  *)
(* cache on and off — on the same program bytes, which is exactly the  *)
(* speedup the tentpole claims.  The self-modifying variants store     *)
(* into their own text page every iteration, so with the cache on they *)
(* measure the generation-check/re-decode invalidation path rather     *)
(* than the hit path.                                                  *)
(* ------------------------------------------------------------------ *)

module Mem = Memsim.Memory

type cpu_work = {
  cw_name : string;
  cw_steps : int;  (** instructions retired per invocation *)
  cw_cached : unit -> unit;
  cw_uncached : unit -> unit;
}

let x86_text_base = 0x0804_8000
let x86_stack_base = 0x0810_0000

let x86_runner ~perm ~icache program =
  let mem = Mem.create () in
  let r = Isa_x86.Asm.assemble ~base:x86_text_base program in
  Mem.map mem ~base:x86_text_base ~size:Mem.page_size ~perm ~name:".text";
  Mem.poke_bytes mem x86_text_base r.Isa_x86.Asm.code;
  Mem.map mem ~base:x86_stack_base ~size:0x4000 ~perm:Mem.rw ~name:"stack";
  let cpu = Isa_x86.Cpu.create ~icache mem in
  let kernel _ _ = Machine.Outcome.Resume in
  let run () =
    Array.fill cpu.Isa_x86.Cpu.regs 0 8 0;
    Isa_x86.Cpu.set cpu Isa_x86.Insn.ESP (x86_stack_base + 0x3000);
    cpu.Isa_x86.Cpu.eip <- x86_text_base;
    cpu.Isa_x86.Cpu.zf <- false;
    cpu.Isa_x86.Cpu.sf <- false;
    cpu.Isa_x86.Cpu.cf <- false;
    cpu.Isa_x86.Cpu.o_f <- false;
    cpu.Isa_x86.Cpu.steps <- 0;
    match Isa_x86.Cpu.run ~fuel:10_000_000 ~traps:[] ~kernel cpu with
    | Machine.Outcome.Halted -> ()
    | other ->
        failwith
          (Format.asprintf "cpu bench: %a" Machine.Outcome.pp other)
  in
  (run, cpu)

let arm_text_base = 0x0001_0000
let arm_stack_base = 0x0010_0000

let arm_runner ~perm ~icache program =
  let mem = Mem.create () in
  let r = Isa_arm.Asm.assemble ~base:arm_text_base program in
  Mem.map mem ~base:arm_text_base ~size:Mem.page_size ~perm ~name:".text";
  Mem.poke_bytes mem arm_text_base r.Isa_arm.Asm.code;
  Mem.map mem ~base:arm_stack_base ~size:0x4000 ~perm:Mem.rw ~name:"stack";
  let cpu = Isa_arm.Cpu.create ~icache mem in
  (* svc 0 is the resumable "syscall"; svc 1 halts the workload. *)
  let kernel n _ =
    if n = 0 then Machine.Outcome.Resume
    else Machine.Outcome.Stop Machine.Outcome.Halted
  in
  let run () =
    Array.fill cpu.Isa_arm.Cpu.regs 0 16 0;
    Isa_arm.Cpu.set cpu Isa_arm.Insn.SP (arm_stack_base + 0x3000);
    Isa_arm.Cpu.set_pc cpu arm_text_base;
    cpu.Isa_arm.Cpu.n <- false;
    cpu.Isa_arm.Cpu.z <- false;
    cpu.Isa_arm.Cpu.c <- false;
    cpu.Isa_arm.Cpu.v <- false;
    cpu.Isa_arm.Cpu.steps <- 0;
    match Isa_arm.Cpu.run ~fuel:10_000_000 ~traps:[] ~kernel cpu with
    | Machine.Outcome.Halted -> ()
    | other ->
        failwith
          (Format.asprintf "cpu bench: %a" Machine.Outcome.pp other)
  in
  (run, cpu)

(* --- x86 workload programs --- *)

let x86_straight iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [ I (Mov_ri (ECX, iters)); Label "loop" ]
  @ [
      I (Add_i (Reg EAX, 3));
      I (Add (Reg EBX, Reg EAX));
      I (Xor (Reg EDX, Reg EAX));
      I (Sub_i (Reg ESI, 1));
      I (Lea (EDI, { base = Some EAX; disp = 8 }));
      I (Or (Reg EBX, Reg EDX));
      I (And (Reg EDX, Reg EAX));
      I (Inc_r ESI);
      I (Mov (Reg EDX, Reg EBX));
      I (Shl_i (EAX, 1));
      I (Sub (Reg EDI, Reg EDX));
      I (Add_i (Reg EBX, 7));
      I (Xor (Reg ESI, Reg EBX));
      I (Not (Reg EDX));
      I (Neg (Reg EDI));
      I (Imul (EAX, Reg EBX));
    ]
  @ [ I (Dec_r ECX); Jcc (NE, "loop"); I Hlt ]

let x86_branchy iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [
    I (Mov_ri (ECX, iters));
    Label "loop";
    I (Cmp_i (Reg ECX, iters / 2));
    Jcc (B, "low");
    I (Inc_r EAX);
    I (Inc_r EBX);
    Jmp "join";
    Label "low";
    I (Dec_r EBX);
    I (Inc_r ESI);
    Label "join";
    I (Xor (Reg EDX, Reg ECX));
    I (Test_rr (EDX, EDX));
    Jcc (S, "skip");
    I (Inc_r EDI);
    Label "skip";
    I (Dec_r ECX);
    Jcc (NE, "loop");
    I Hlt;
  ]

let x86_syscall iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [
    I (Mov_ri (ECX, iters));
    Label "loop";
    I (Mov_ri (EAX, 4));
    I (Int 0x80);
    I (Dec_r ECX);
    Jcc (NE, "loop");
    I Hlt;
  ]

(* Stores 0x90909090 over its own four NOPs each iteration: every store
   bumps the text page's generation, so the cached decodes of the whole
   loop go stale once per iteration. *)
let x86_selfmod iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [
    I (Mov_ri (ECX, iters));
    Mov_ri_sym (EDX, "patch");
    Label "loop";
    I (Mov_mi (Mem { base = Some EDX; disp = 0 }, 0x9090_9090));
    Label "patch";
    I Nop;
    I Nop;
    I Nop;
    I Nop;
    I (Dec_r ECX);
    Jcc (NE, "loop");
    I Hlt;
  ]

(* --- ARM workload programs --- *)

let arm_straight iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [ I (al (Mov (R2, Imm iters))); Label "loop" ]
  @ [
      I (al (Add (R0, R0, Imm 3)));
      I (al (Add (R1, R1, Reg R0)));
      I (al (Eor (R3, R3, Reg R0)));
      I (al (Sub (R4, R4, Imm 1)));
      I (al (Orr (R1, R1, Reg R3)));
      I (al (And (R3, R3, Reg R0)));
      I (al (Mov (R5, Lsl (R0, 1))));
      I (al (Mvn (R4, Reg R3)));
      I (al (Rsb (R5, R5, Reg R1)));
      I (al (Add (R1, R1, Imm 7)));
      I (al (Eor (R4, R4, Reg R1)));
      I (al (Bic (R3, R3, Imm 0xFF)));
      I (al (Mul (R5, R0, R1)));
      I (al (Sub (R0, R0, Reg R4)));
      I (al (Orr (R3, R3, Imm 1)));
      I (al (Add (R4, R4, Reg R5)));
    ]
  @ [
      I (al (Sub (R2, R2, Imm 1)));
      I (al (Cmp (R2, Imm 0)));
      B_sym (NE, "loop");
      I (al (Svc 1));
    ]

let arm_branchy iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [
    I (al (Mov (R2, Imm iters)));
    I (al (Mov (R6, Imm (iters / 2))));
    Label "loop";
    I (al (Cmp (R2, Reg R6)));
    B_sym (LT, "low");
    I (al (Add (R0, R0, Imm 1)));
    I (al (Add (R1, R1, Imm 2)));
    B_sym (AL, "join");
    Label "low";
    I (al (Sub (R1, R1, Imm 1)));
    I (al (Add (R3, R3, Imm 1)));
    Label "join";
    I (al (Eor (R4, R4, Reg R2)));
    I (al (Tst (R4, Imm 1)));
    B_sym (NE, "skip");
    I (al (Add (R5, R5, Imm 1)));
    Label "skip";
    I (al (Sub (R2, R2, Imm 1)));
    I (al (Cmp (R2, Imm 0)));
    B_sym (NE, "loop");
    I (al (Svc 1));
  ]

let arm_syscall iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [
    I (al (Mov (R2, Imm iters)));
    Label "loop";
    I (al (Mov (R7, Imm 4)));
    I (al (Svc 0));
    I (al (Sub (R2, R2, Imm 1)));
    I (al (Cmp (R2, Imm 0)));
    B_sym (NE, "loop");
    I (al (Svc 1));
  ]

let arm_selfmod iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [
    I (al (Mov (R2, Imm iters)));
    Ldr_sym (R5, "lit_patch");
    Ldr_sym (R6, "lit_nop");
    Label "loop";
    I (al (Str (R6, R5, 0)));
    Label "patch";
    I (al (Mov (R0, Reg R0)));
    I (al (Add (R1, R1, Imm 1)));
    I (al (Sub (R2, R2, Imm 1)));
    I (al (Cmp (R2, Imm 0)));
    B_sym (NE, "loop");
    I (al (Svc 1));
    Label "lit_patch";
    Word_sym "patch";
    Label "lit_nop";
    Word 0xE1A0_0000 (* mov r0, r0 — the bytes already at "patch" *);
  ]

let cpu_workloads ~iters =
  let mk name runner perm program =
    let run_c, cpu_c = runner ~perm ~icache:true program in
    let run_u, _ = runner ~perm ~icache:false program in
    (* Warm run: sanity-checks both variants reach Halted and yields the
       per-invocation retired-instruction count. *)
    run_c ();
    run_u ();
    let steps =
      match cpu_c with
      | `X86 c -> c.Isa_x86.Cpu.steps
      | `Arm c -> c.Isa_arm.Cpu.steps
    in
    { cw_name = name; cw_steps = steps; cw_cached = run_c; cw_uncached = run_u }
  in
  let x86 ~perm ~icache p =
    let run, cpu = x86_runner ~perm ~icache p in
    (run, `X86 cpu)
  in
  let arm ~perm ~icache p =
    let run, cpu = arm_runner ~perm ~icache p in
    (run, `Arm cpu)
  in
  [
    mk "cpu/straight-x86" x86 Mem.rx (x86_straight iters);
    mk "cpu/branchy-x86" x86 Mem.rx (x86_branchy iters);
    mk "cpu/syscall-x86" x86 Mem.rx (x86_syscall iters);
    mk "cpu/selfmod-x86" x86 Mem.rwx (x86_selfmod iters);
    mk "cpu/straight-arm" arm Mem.rx (arm_straight iters);
    mk "cpu/branchy-arm" arm Mem.rx (arm_branchy iters);
    mk "cpu/syscall-arm" arm Mem.rx (arm_syscall iters);
    mk "cpu/selfmod-arm" arm Mem.rwx (arm_selfmod iters);
  ]

(* Time a bare closure through Bechamel (same OLS estimator as the rest). *)
let time_fn cfg name f =
  let test = Test.make ~name (Staged.stage f) in
  match Test.elements test with
  | [ elt ] -> measure_elt cfg elt
  | _ -> invalid_arg "time_fn: expected a single element"

let run_cpu_json ~smoke ~out () =
  let iters = if smoke then 64 else 512 in
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Format.printf "=== CPU interpreter benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  Format.printf "%-20s %8s %14s %14s %10s %9s@." "workload" "steps" "cached"
    "uncached" "Msteps/s" "speedup";
  Format.printf "%s@." (String.make 80 '-');
  let rows =
    List.map
      (fun w ->
        let c_ns, c_r2 = time_fn cfg (w.cw_name ^ "/cached") w.cw_cached in
        let u_ns, u_r2 = time_fn cfg (w.cw_name ^ "/uncached") w.cw_uncached in
        let steps = float_of_int w.cw_steps in
        let c_rate = steps *. 1e9 /. c_ns and u_rate = steps *. 1e9 /. u_ns in
        let speedup = u_ns /. c_ns in
        Format.printf "%-20s %8d %14s %14s %10.1f %8.2fx@." w.cw_name
          w.cw_steps (pretty_nanos c_ns) (pretty_nanos u_ns) (c_rate /. 1e6)
          speedup;
        (w, c_ns, c_r2, c_rate, u_ns, u_r2, u_rate, speedup))
      (cpu_workloads ~iters)
  in
  (* Flattened into the shared schema: each workload contributes a
     /cached and /uncached timing row plus a /speedup ratio row. *)
  write_bench_json ~suite:"cpu" ~smoke
    ~meta:[ ("iters", string_of_int iters) ]
    ~out
    (List.concat_map
       (fun (w, c_ns, c_r2, c_rate, u_ns, u_r2, u_rate, speedup) ->
         let steps = float_of_int w.cw_steps in
         [
           bench_row (w.cw_name ^ "/cached") "ns_per_run" c_ns
             ~extra:
               [
                 ("steps_per_run", steps); ("steps_per_sec", c_rate);
                 ("r_square", c_r2);
               ];
           bench_row (w.cw_name ^ "/uncached") "ns_per_run" u_ns
             ~extra:
               [
                 ("steps_per_run", steps); ("steps_per_sec", u_rate);
                 ("r_square", u_r2);
               ];
           bench_row (w.cw_name ^ "/speedup") "ratio" speedup;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Sanitizer overhead benches: BENCH_sanitizer.json                    *)
(*                                                                     *)
(*   dune exec bench/main.exe -- sanitizer           (full run)        *)
(*   dune exec bench/main.exe -- sanitizer --smoke   (few iterations)  *)
(*   dune build @sanitizer-bench-smoke               (dune target)     *)
(*                                                                     *)
(* The taint sanitizer's overhead contract: each workload is timed     *)
(* through the plain [run] loop and through [run_sanitized] against a  *)
(* reused oracle ([begin_parse] per invocation, as the daemon does per *)
(* datagram).  Straight-line and branchy loops bound the per-retired-  *)
(* instruction cost on both ISAs; the parse-heavy rows measure the     *)
(* end-to-end benign-response parse through connmand with and without  *)
(* the oracle attached — the number a deployment would actually pay.   *)
(* ------------------------------------------------------------------ *)

let x86_sanitized_runner program =
  let mem = Mem.create () in
  let r = Isa_x86.Asm.assemble ~base:x86_text_base program in
  Mem.map mem ~base:x86_text_base ~size:Mem.page_size ~perm:Mem.rx ~name:".text";
  Mem.poke_bytes mem x86_text_base r.Isa_x86.Asm.code;
  Mem.map mem ~base:x86_stack_base ~size:0x4000 ~perm:Mem.rw ~name:"stack";
  let cpu = Isa_x86.Cpu.create ~icache:true mem in
  let oracle = Sanitizer.Oracle.create () in
  let kernel _ _ = Machine.Outcome.Resume in
  fun () ->
    Sanitizer.Oracle.begin_parse oracle;
    Array.fill cpu.Isa_x86.Cpu.regs 0 8 0;
    Isa_x86.Cpu.set cpu Isa_x86.Insn.ESP (x86_stack_base + 0x3000);
    cpu.Isa_x86.Cpu.eip <- x86_text_base;
    cpu.Isa_x86.Cpu.zf <- false;
    cpu.Isa_x86.Cpu.sf <- false;
    cpu.Isa_x86.Cpu.cf <- false;
    cpu.Isa_x86.Cpu.o_f <- false;
    cpu.Isa_x86.Cpu.steps <- 0;
    match Isa_x86.Cpu.run_sanitized ~fuel:10_000_000 ~traps:[] ~kernel ~oracle cpu with
    | Machine.Outcome.Halted -> ()
    | other ->
        failwith (Format.asprintf "sanitizer bench: %a" Machine.Outcome.pp other)

let arm_sanitized_runner program =
  let mem = Mem.create () in
  let r = Isa_arm.Asm.assemble ~base:arm_text_base program in
  Mem.map mem ~base:arm_text_base ~size:Mem.page_size ~perm:Mem.rx ~name:".text";
  Mem.poke_bytes mem arm_text_base r.Isa_arm.Asm.code;
  Mem.map mem ~base:arm_stack_base ~size:0x4000 ~perm:Mem.rw ~name:"stack";
  let cpu = Isa_arm.Cpu.create ~icache:true mem in
  let oracle = Sanitizer.Oracle.create () in
  let kernel n _ =
    if n = 0 then Machine.Outcome.Resume
    else Machine.Outcome.Stop Machine.Outcome.Halted
  in
  fun () ->
    Sanitizer.Oracle.begin_parse oracle;
    Array.fill cpu.Isa_arm.Cpu.regs 0 16 0;
    Isa_arm.Cpu.set cpu Isa_arm.Insn.SP (arm_stack_base + 0x3000);
    Isa_arm.Cpu.set_pc cpu arm_text_base;
    cpu.Isa_arm.Cpu.n <- false;
    cpu.Isa_arm.Cpu.z <- false;
    cpu.Isa_arm.Cpu.c <- false;
    cpu.Isa_arm.Cpu.v <- false;
    cpu.Isa_arm.Cpu.steps <- 0;
    match Isa_arm.Cpu.run_sanitized ~fuel:10_000_000 ~traps:[] ~kernel ~oracle cpu with
    | Machine.Outcome.Halted -> ()
    | other ->
        failwith (Format.asprintf "sanitizer bench: %a" Machine.Outcome.pp other)

(* One live daemon per variant; with the oracle attached every response
   byte is tainted and the parse runs under [run_sanitized] (benign
   bytes, so zero reports — pure overhead). *)
let sanitizer_parse_bench ~sanitize arch =
  let d = Dnsproxy.create (mk_config arch Profile.wx 9) in
  if sanitize then Dnsproxy.set_sanitizer d (Some (Sanitizer.Oracle.create ()));
  fun () -> ignore (Dnsproxy.handle_response d (benign_wire d))

let sanitizer_workloads ~iters =
  [
    ( "sanitizer/straight-x86",
      fst (x86_runner ~perm:Mem.rx ~icache:true (x86_straight iters)),
      x86_sanitized_runner (x86_straight iters) );
    ( "sanitizer/branchy-x86",
      fst (x86_runner ~perm:Mem.rx ~icache:true (x86_branchy iters)),
      x86_sanitized_runner (x86_branchy iters) );
    ( "sanitizer/straight-arm",
      fst (arm_runner ~perm:Mem.rx ~icache:true (arm_straight iters)),
      arm_sanitized_runner (arm_straight iters) );
    ( "sanitizer/branchy-arm",
      fst (arm_runner ~perm:Mem.rx ~icache:true (arm_branchy iters)),
      arm_sanitized_runner (arm_branchy iters) );
    ( "sanitizer/parse-x86",
      sanitizer_parse_bench ~sanitize:false Loader.Arch.X86,
      sanitizer_parse_bench ~sanitize:true Loader.Arch.X86 );
    ( "sanitizer/parse-arm",
      sanitizer_parse_bench ~sanitize:false Loader.Arch.Arm,
      sanitizer_parse_bench ~sanitize:true Loader.Arch.Arm );
  ]

let run_sanitizer_json ~smoke ~out () =
  let iters = if smoke then 64 else 512 in
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Format.printf "=== Sanitizer overhead benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  Format.printf "%-24s %14s %14s %9s@." "workload" "plain" "sanitized"
    "overhead";
  Format.printf "%s@." (String.make 66 '-');
  let rows =
    List.map
      (fun (name, plain, sanitized) ->
        let p_ns, p_r2 = time_fn cfg (name ^ "/plain") plain in
        let s_ns, s_r2 = time_fn cfg (name ^ "/sanitized") sanitized in
        let overhead = s_ns /. p_ns in
        Format.printf "%-24s %14s %14s %8.2fx@." name (pretty_nanos p_ns)
          (pretty_nanos s_ns) overhead;
        (name, p_ns, p_r2, s_ns, s_r2, overhead))
      (sanitizer_workloads ~iters)
  in
  write_bench_json ~suite:"sanitizer" ~smoke
    ~meta:[ ("iters", string_of_int iters) ]
    ~out
    (List.concat_map
       (fun (name, p_ns, p_r2, s_ns, s_r2, overhead) ->
         [
           bench_row (name ^ "/plain") "ns_per_run" p_ns
             ~extra:[ ("r_square", p_r2) ];
           bench_row (name ^ "/sanitized") "ns_per_run" s_ns
             ~extra:[ ("r_square", s_r2) ];
           bench_row (name ^ "/overhead") "ratio" overhead;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Fault-injection path benches: BENCH_faults.json                     *)
(*                                                                     *)
(*   dune exec bench/main.exe -- faults            (full measurement)  *)
(*   dune exec bench/main.exe -- faults --smoke    (few iterations)    *)
(*   dune build @faults-bench-smoke                (dune smoke target) *)
(*                                                                     *)
(* What a datagram costs to deliver: a clean link (policy resolution + *)
(* the default latency draw — the hot path every simulated packet now  *)
(* crosses), the same link with every impairment enabled, a 32-host    *)
(* broadcast domain, and a 16-LAN uplink chain exercising the unicast  *)
(* route search.  Worlds are reused across invocations (the event heap *)
(* drains each run), so the estimate is the send+run steady state.     *)
(* ------------------------------------------------------------------ *)

module WF = Netsim.World
module Faults = Netsim.Faults

let fault_impaired_policy =
  {
    Faults.default with
    Faults.drop = 0.1;
    duplicate = 0.15;
    corrupt = 0.15;
    reorder = 0.3;
    reorder_window_us = 2_000;
    latency = Faults.Jitter { base = 500; jitter = 400 };
  }

let faults_two_host_bench ?policy () =
  let w = WF.create ~seed:7 () in
  let lan = WF.add_lan w ~name:"lan" in
  (match policy with Some p -> WF.set_lan_policy w lan p | None -> ());
  let a = WF.add_host w ~name:"a" in
  WF.set_host_ip a (Some (Netsim.Ip.of_string "10.0.0.1"));
  WF.attach a lan;
  let b = WF.add_host w ~name:"b" in
  let dst = Netsim.Ip.of_string "10.0.0.2" in
  WF.set_host_ip b (Some dst);
  WF.attach b lan;
  WF.on_udp b ~port:9 (fun _ _ -> ());
  fun () ->
    for _ = 1 to 64 do
      WF.send w ~from:a ~dst ~dport:9 "bench payload"
    done;
    ignore (WF.run w)

let faults_broadcast_bench ~hosts () =
  let w = WF.create ~seed:7 () in
  let lan = WF.add_lan w ~name:"lan" in
  let sender = WF.add_host w ~name:"sender" in
  WF.set_host_ip sender (Some (Netsim.Ip.of_string "10.0.0.1"));
  WF.attach sender lan;
  for i = 2 to hosts do
    let h = WF.add_host w ~name:(Printf.sprintf "h%d" i) in
    WF.set_host_ip h (Some (Netsim.Ip.of_string (Printf.sprintf "10.0.0.%d" i)));
    WF.attach h lan;
    WF.on_udp h ~port:9 (fun _ _ -> ())
  done;
  fun () ->
    for _ = 1 to 8 do
      WF.send w ~from:sender ~dst:Netsim.Ip.broadcast ~dport:9 "bench payload"
    done;
    ignore (WF.run w)

let faults_route_chain_bench ~lans () =
  let w = WF.create ~seed:7 () in
  let chain =
    Array.init lans (fun i -> WF.add_lan w ~name:(Printf.sprintf "lan%d" i))
  in
  for i = 0 to lans - 2 do
    WF.set_uplink chain.(i) (Some chain.(i + 1))
  done;
  let src = WF.add_host w ~name:"src" in
  WF.set_host_ip src (Some (Netsim.Ip.of_string "10.0.0.1"));
  WF.attach src chain.(0);
  let dst_host = WF.add_host w ~name:"dst" in
  let dst = Netsim.Ip.of_string "10.0.255.1" in
  WF.set_host_ip dst_host (Some dst);
  WF.attach dst_host chain.(lans - 1);
  WF.on_udp dst_host ~port:9 (fun _ _ -> ());
  fun () ->
    for _ = 1 to 64 do
      WF.send w ~from:src ~dst ~dport:9 "bench payload"
    done;
    ignore (WF.run w)

let run_faults_json ~smoke ~out () =
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.01) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  Format.printf "=== Fault-injection path benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  let workloads =
    [
      ("faults/unicast-clean-64", faults_two_host_bench ());
      ( "faults/unicast-impaired-64",
        faults_two_host_bench ~policy:fault_impaired_policy () );
      ("faults/broadcast-32-hosts", faults_broadcast_bench ~hosts:32 ());
      ("faults/route-chain-16-lans", faults_route_chain_bench ~lans:16 ());
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let nanos, r2 = time_fn cfg name f in
        Format.printf "%-32s %16s %12.4f@." name (pretty_nanos nanos) r2;
        (name, nanos, r2))
      workloads
  in
  write_bench_json ~suite:"faults" ~smoke ~out
    (List.map
       (fun (name, nanos, r2) ->
         let nanos = if Float.is_nan nanos then 0.0 else nanos in
         let ops = if nanos > 0.0 then 1e9 /. nanos else 0.0 in
         bench_row name "ns_per_op" nanos
           ~extra:[ ("ops_per_sec", ops); ("r_square", r2) ])
       rows)

(* Throughput context: instructions retired per benign parse — and the
   §IV concern made quantitative: what each defense costs the device on
   the hot path (guest instructions per benign response). *)
let parse_steps arch profile =
  let d = Dnsproxy.create (mk_config arch profile 9) in
  let query = Dnsproxy.make_query d lookup in
  let wire =
    Dns.Packet.encode
      (Dns.Packet.response ~query [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:1 ])
  in
  ignore (Dnsproxy.handle_response d wire);
  Dnsproxy.last_steps d

let print_parse_costs () =
  Format.printf "@.=== Machine-level parse cost (benign response) ===@.@.";
  Format.printf "%-8s %-22s %12s %10s@." "arch" "protections" "instructions"
    "overhead";
  Format.printf "%s@." (String.make 58 '-');
  List.iter
    (fun arch ->
      let base = parse_steps arch Profile.none in
      List.iter
        (fun (label, profile) ->
          let steps = parse_steps arch profile in
          Format.printf "%-8s %-22s %12d %9.1f%%@." (Loader.Arch.name arch)
            label steps
            (100.0 *. float_of_int (steps - base) /. float_of_int base))
        [
          ("none", Profile.none);
          ("wx", Profile.wx);
          ("wx+aslr", Profile.wx_aslr);
          ("wx+canary", Profile.with_canary Profile.wx);
          ("wx+aslr+shstk", Profile.with_shadow_stack Profile.wx_aslr);
          ("wx+seccomp", Profile.with_seccomp Profile.wx);
        ])
    Loader.Arch.all;
  Format.printf
    "@.(CFI and seccomp are host-enforced: zero guest instructions, as a@.\
     hardware shadow stack or kernel filter would be; canaries add the@.\
     prologue/epilogue checks the compiler emits.)@." 

(* ------------------------------------------------------------------ *)
(* Snapshot-fuzzing benches: BENCH_fuzz.json                           *)
(*                                                                     *)
(* The costs that set the fuzzer's throughput: taking a CoW snapshot,  *)
(* restoring it (clean, and after a parse has dirtied pages), forking  *)
(* a fresh machine from it, and a complete fuzz execution              *)
(* (restore + datagram write + coverage-instrumented parse, with the  *)
(* edge map fed through [on_step] exactly as Fuzz.Engine feeds it).   *)
(*                                                                     *)
(*   dune exec bench/main.exe -- fuzz             (full measurement)   *)
(*   dune exec bench/main.exe -- fuzz --smoke     (few iterations)     *)
(*   dune build @fuzz-bench-smoke                 (dune smoke target)  *)
(* ------------------------------------------------------------------ *)

let run_fuzz_json ~smoke ~out () =
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Format.printf "=== Snapshot-fuzzing benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  let bench_arch arch =
    let aname = Loader.Arch.name arch in
    let profile = Profile.wx in
    let spec =
      match arch with
      | Loader.Arch.X86 ->
          Connman.Program_x86.spec ~version:Connman.Version.v1_34 ~profile ()
      | Loader.Arch.Arm ->
          Connman.Program_arm.spec ~version:Connman.Version.v1_34 ~profile ()
    in
    let proc = Loader.Process.boot spec ~profile ~seed:1 in
    let snap = Loader.Process.snapshot proc in
    let entry = Loader.Process.symbol proc "parse_response" in
    let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
    let input = List.hd (Fuzz.Engine.benign_seeds ()) in
    let cov = Fuzz.Coverage.create () in
    (* The engine's tap: the edge map as the hooked loop's [on_step]. *)
    let touch = Fuzz.Coverage.touch cov in
    let parse () =
      Memsim.Memory.write_bytes proc.Loader.Process.mem buf input;
      Fuzz.Coverage.begin_exec cov;
      let r =
        Loader.Process.call proc ~fuel:400_000 ~on_step:touch ~entry
          ~args:[ buf; String.length input ]
      in
      ignore (Fuzz.Coverage.commit cov);
      r
    in
    (* Warm run: the parse must succeed for the numbers to mean anything. *)
    (match (parse ()).Loader.Process.outcome with
    | Machine.Outcome.Halted -> ()
    | o -> failwith ("fuzz bench: benign parse failed: " ^ Machine.Outcome.to_string o));
    let steps = float_of_int (parse ()).Loader.Process.steps in
    Loader.Process.restore proc snap;
    let snap_ns, snap_r2 =
      time_fn cfg ("fuzz/snapshot-" ^ aname) (fun () ->
          ignore (Loader.Process.snapshot proc))
    in
    (* Steady-state restore: nothing dirtied between iterations. *)
    let rclean_ns, rclean_r2 =
      time_fn cfg ("fuzz/restore-clean-" ^ aname) (fun () ->
          Loader.Process.restore proc snap)
    in
    (* Dirty restore: every iteration parses (dirtying stack/heap/bss
       pages) then rewinds, i.e. one full fuzz execution. *)
    let exec_ns, exec_r2 =
      time_fn cfg ("fuzz/exec-" ^ aname) (fun () ->
          Loader.Process.restore proc snap;
          ignore (parse ()))
    in
    let fork_ns, fork_r2 =
      time_fn cfg ("fuzz/fork-" ^ aname) (fun () ->
          ignore (Loader.Process.fork proc snap))
    in
    let execs_per_sec = if exec_ns > 0.0 then 1e9 /. exec_ns else 0.0 in
    Format.printf
      "%-22s snapshot %10s  restore %10s  exec %10s (%8.0f execs/s)  fork %10s@."
      aname (pretty_nanos snap_ns) (pretty_nanos rclean_ns)
      (pretty_nanos exec_ns) execs_per_sec (pretty_nanos fork_ns);
    [
      bench_row ("fuzz/snapshot-" ^ aname) "ns_per_op" snap_ns
        ~extra:[ ("r_square", snap_r2) ];
      bench_row ("fuzz/restore-clean-" ^ aname) "ns_per_op" rclean_ns
        ~extra:[ ("r_square", rclean_r2) ];
      bench_row ("fuzz/exec-" ^ aname) "ns_per_run" exec_ns
        ~extra:
          [
            ("execs_per_sec", execs_per_sec);
            ("steps_per_run", steps);
            ("r_square", exec_r2);
          ];
      bench_row ("fuzz/fork-" ^ aname) "ns_per_op" fork_ns
        ~extra:[ ("r_square", fork_r2) ];
    ]
  in
  let rows = List.concat_map bench_arch Loader.Arch.all in
  write_bench_json ~suite:"fuzz" ~smoke ~out rows

(* ------------------------------------------------------------------ *)
(* Wire codec: BENCH_wire.json                                         *)
(*                                                                     *)
(* Old (Dns.Legacy: String.sub walker, Buffer/Hashtbl encoder) vs the  *)
(* zero-copy codec (reused Dns.Wire view + arena) on the two host-side *)
(* hot paths: parsing a benign response down to its A records, and     *)
(* answering a query (parse + build + encode).                         *)
(*                                                                     *)
(*   dune exec bench/main.exe -- wire            (full measurement)    *)
(*   dune exec bench/main.exe -- wire --smoke    (few iterations)      *)
(*   dune build @wire-bench-smoke                (dune smoke target)   *)
(* ------------------------------------------------------------------ *)

(* Allocation per call, measured directly off the minor/major counters;
   deterministic for a fixed workload. *)
let alloc_per_op ?(n = 10_000) f =
  for _ = 1 to 256 do f () done;
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do f () done;
  (Gc.allocated_bytes () -. before) /. float_of_int n

let run_wire_json ~smoke ~out () =
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Format.printf "=== Wire codec benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  let open Dns in
  let name = Name.of_string in
  let query = Packet.query ~id:0x1A2B (name "www.example.com") Packet.A in
  let response =
    Packet.response ~query
      [
        Packet.cname_record (name "www.example.com") ~ttl:600
          ~target:(name "web.example.com");
        Packet.a_record (name "web.example.com") ~ttl:300 ~ipv4:0x5DB8D822;
        Packet.a_record (name "web.example.com") ~ttl:300 ~ipv4:0x5DB8D823;
      ]
  in
  let response_wire = Packet.encode response in
  let query_wire = Packet.encode query in
  (* Parse path: validate a response and extract its A records, as the
     daemons' cache-update paths do. *)
  let legacy_parse () =
    match Legacy.decode response_wire with
    | Error _ -> 0
    | Ok p ->
        List.fold_left
          (fun acc (rr : Packet.rr) ->
            match (rr.Packet.rtype, Packet.ipv4_of_rdata rr.Packet.rdata) with
            | Packet.A, Some ip -> acc + ip
            | _ -> acc)
          0 p.Packet.answers
  in
  let view = Wire.create_view () in
  let zc_parse () =
    match Wire.parse view response_wire with
    | Error _ -> 0
    | Ok () ->
        let acc = ref 0 in
        for i = 0 to Wire.ancount view - 1 do
          if Wire.rr_rtype view i = 1 && Wire.rr_rdlen view i = 4 then
            acc := !acc + Wire.get_u32 response_wire (Wire.rr_rdata view i)
        done;
        !acc
  in
  assert (legacy_parse () = zc_parse ());
  (* Respond path: decode a query, build the answer, encode it — the
     resolver's per-datagram work. *)
  let answer = [ Packet.a_record (name "www.example.com") ~ttl:300 ~ipv4:42 ] in
  let legacy_respond () =
    match Legacy.decode query_wire with
    | Error _ -> 0
    | Ok q -> String.length (Legacy.encode (Packet.response ~query:q answer))
  in
  let arena = Wire.arena ~capacity:256 () in
  let qview = Wire.create_view () in
  (* The zero-copy responder never materializes a [Packet.t]: it echoes
     the question bytes straight from the query wire and appends the
     answer RR with a hand-written compression pointer to the question
     name — the same bytes [Packet.response]/[Legacy.encode] produce,
     asserted below. *)
  let zc_respond () =
    match Wire.parse qview query_wire with
    | Error _ -> 0
    | Ok () -> (
        let qname_off = Wire.question_name qview 0 in
        match Wire.skip_name query_wire qname_off with
        | Error _ -> 0
        | Ok used ->
            Wire.reset arena;
            Wire.add_u16 arena (Wire.id qview);
            (* qr=1, ra=1; aa and rcode cleared — as Packet.response. *)
            Wire.add_u16 arena ((Wire.flags qview lor 0x8080) land 0xFBF0);
            Wire.add_u16 arena 1 (* qdcount *);
            Wire.add_u16 arena 1 (* ancount *);
            Wire.add_u16 arena 0;
            Wire.add_u16 arena 0;
            Wire.add_substring arena query_wire qname_off (used + 4);
            Wire.add_u16 arena 0xC00C (* name: pointer to the question *);
            Wire.add_u16 arena 1 (* type A *);
            Wire.add_u16 arena 1 (* class IN *);
            Wire.add_u32 arena 300;
            Wire.add_u16 arena 4;
            Wire.add_u32 arena 42;
            Wire.length arena)
  in
  (* Byte-for-byte parity with the legacy respond path, not just length. *)
  (match Legacy.decode query_wire with
  | Error _ -> assert false
  | Ok q ->
      let legacy_bytes = Legacy.encode (Packet.response ~query:q answer) in
      ignore (zc_respond ());
      assert (String.equal legacy_bytes (Wire.contents arena)));
  assert (legacy_respond () = zc_respond ());
  let bench tag legacy zc =
    let l_ns, l_r2 = time_fn cfg ("wire/" ^ tag ^ "-legacy") (fun () -> ignore (legacy ())) in
    let z_ns, z_r2 = time_fn cfg ("wire/" ^ tag ^ "-zero-copy") (fun () -> ignore (zc ())) in
    let l_alloc = alloc_per_op (fun () -> ignore (legacy ())) in
    let z_alloc = alloc_per_op (fun () -> ignore (zc ())) in
    let speedup = if z_ns > 0.0 then l_ns /. z_ns else 0.0 in
    let alloc_ratio = if z_alloc > 0.0 then l_alloc /. z_alloc else Float.of_int (int_of_float l_alloc) in
    Format.printf
      "%-14s legacy %10s (%6.0f B/op)   zero-copy %10s (%6.0f B/op)   %5.1fx faster, %5.1fx fewer bytes@."
      tag (pretty_nanos l_ns) l_alloc (pretty_nanos z_ns) z_alloc speedup
      alloc_ratio;
    [
      bench_row ("wire/" ^ tag ^ "-legacy") "ns_per_op" l_ns
        ~extra:[ ("alloc_bytes_per_op", l_alloc); ("r_square", l_r2) ];
      bench_row ("wire/" ^ tag ^ "-zero-copy") "ns_per_op" z_ns
        ~extra:[ ("alloc_bytes_per_op", z_alloc); ("r_square", z_r2) ];
      bench_row ("wire/" ^ tag ^ "-speedup") "ratio" speedup
        ~extra:[ ("alloc_ratio", alloc_ratio) ];
    ]
  in
  let rows = bench "parse" legacy_parse zc_parse @ bench "respond" legacy_respond zc_respond in
  write_bench_json ~suite:"wire" ~smoke ~out rows

(* ------------------------------------------------------------------ *)
(* Fleet campaign benches: BENCH_fleet.json                            *)
(*                                                                     *)
(* The two numbers that set campaign scale: how fast devices spawn     *)
(* (a CoW fork of the firmware template, per ISA), and end-to-end      *)
(* scheduler throughput — events/sec of a whole campaign (benign +     *)
(* attack traffic, supervision, rollout) at shard counts 1/2/4.        *)
(*                                                                     *)
(*   dune exec bench/main.exe -- fleet            (full measurement)   *)
(*   dune exec bench/main.exe -- fleet --smoke    (few iterations)     *)
(*   dune build @fleet-bench-smoke                (dune smoke target)  *)
(* ------------------------------------------------------------------ *)

let run_fleet_json ~smoke ~out () =
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Format.printf "=== Fleet campaign benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  (* Device spawn: fork a daemon off a booted template, as the campaign
     does for the initial population, every reimage, and every patch. *)
  let bench_fork arch =
    let aname = Loader.Arch.name arch in
    let tpl =
      Connman.Dnsproxy.create
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch;
          profile = Profile.wx;
          boot_seed = 1;
          diversity_seed = None;
        }
    in
    let fork_ns, fork_r2 =
      time_fn cfg ("fleet/fork-" ^ aname) (fun () ->
          ignore (Connman.Dnsproxy.fork tpl))
    in
    let devices_per_sec = if fork_ns > 0.0 then 1e9 /. fork_ns else 0.0 in
    Format.printf "%-18s fork %10s  (%9.0f devices/s)@." aname
      (pretty_nanos fork_ns) devices_per_sec;
    [
      bench_row ("fleet/fork-" ^ aname) "ns_per_op" fork_ns
        ~extra:
          [ ("devices_per_sec", devices_per_sec); ("r_square", fork_r2) ];
    ]
  in
  (* Whole-campaign throughput at each shard count; one timed run each
     (a campaign is far too heavy for an OLS sweep). *)
  let bench_shards shards =
    let ccfg =
      if smoke then { Fleet.Campaign.smoke_config with Fleet.Campaign.shards }
      else
        {
          Fleet.Campaign.default_config with
          Fleet.Campaign.devices = 240;
          lans = 8;
          shards;
        }
    in
    let t0 = Sys.time () in
    let report = Fleet.Campaign.run ccfg in
    let wall_ns = (Sys.time () -. t0) *. 1e9 in
    let events = float_of_int report.Fleet.Campaign.r_events in
    let events_per_sec = if wall_ns > 0.0 then events *. 1e9 /. wall_ns else 0.0 in
    Format.printf "%-18s %8.0f events in %10s  (%9.0f events/s)@."
      (Printf.sprintf "campaign-shards-%d" shards)
      events (pretty_nanos wall_ns) events_per_sec;
    bench_row
      (Printf.sprintf "fleet/campaign-shards-%d" shards)
      "events_per_sec" events_per_sec
      ~extra:
        [
          ("events", events);
          ("wall_ns", wall_ns);
          ("devices", float_of_int ccfg.Fleet.Campaign.devices);
        ]
  in
  (* Flight-recorder cost: the identical campaign bare and with the
     monitor attached (1s scrape barrier, the built-in rule set, causal
     journaling), back to back.  The event count is the same both ways —
     the barrier only segments the run loop — so the overhead ratio is
     pure scrape + journal cost, the tentpole's <=5%% budget. *)
  let bench_monitored () =
    let shards = if smoke then 2 else 4 in
    let ccfg =
      if smoke then { Fleet.Campaign.smoke_config with Fleet.Campaign.shards }
      else
        {
          Fleet.Campaign.default_config with
          Fleet.Campaign.devices = 240;
          lans = 8;
          shards;
        }
    in
    let run_once ~monitored =
      let t0 = Sys.time () in
      let report =
        if monitored then begin
          let mon = Telemetry.Monitor.create (Telemetry.Metrics.create ()) in
          (match
             Telemetry.Monitor.add_rules mon Fleet.Campaign.default_rules
           with
          | Ok _ -> ()
          | Error e -> failwith ("fleet bench: bad built-in rules: " ^ e));
          Fleet.Campaign.run ~monitor:mon ccfg
        end
        else Fleet.Campaign.run ccfg
      in
      let wall_ns = (Sys.time () -. t0) *. 1e9 in
      (float_of_int report.Fleet.Campaign.r_events, wall_ns)
    in
    let b_events, b_wall = run_once ~monitored:false in
    let m_events, m_wall = run_once ~monitored:true in
    let eps events wall = if wall > 0.0 then events *. 1e9 /. wall else 0.0 in
    let b_eps = eps b_events b_wall and m_eps = eps m_events m_wall in
    let overhead = if b_eps > 0.0 then b_eps /. m_eps else 0.0 in
    Format.printf "%-18s %8.0f events in %10s  (%9.0f events/s)@."
      (Printf.sprintf "campaign-bare-%d" shards)
      b_events (pretty_nanos b_wall) b_eps;
    Format.printf
      "%-18s %8.0f events in %10s  (%9.0f events/s)  monitor overhead %5.2fx@."
      (Printf.sprintf "campaign-monitor-%d" shards)
      m_events (pretty_nanos m_wall) m_eps overhead;
    [
      bench_row
        (Printf.sprintf "fleet/campaign-monitored-shards-%d" shards)
        "events_per_sec" m_eps
        ~extra:
          [
            ("events", m_events);
            ("wall_ns", m_wall);
            ("devices", float_of_int ccfg.Fleet.Campaign.devices);
          ];
      bench_row "fleet/monitor-overhead" "ratio" overhead
        ~extra:[ ("bare_events_per_sec", b_eps) ];
    ]
  in
  let rows =
    List.concat_map bench_fork Loader.Arch.all
    @ List.map bench_shards [ 1; 2; 4 ]
    @ bench_monitored ()
  in
  write_bench_json ~suite:"fleet" ~smoke ~out rows

(* ------------------------------------------------------------------ *)
(* Software-diversity benches: BENCH_diversity.json                    *)
(*                                                                     *)
(* The three numbers that make per-boot diversification deployable:    *)
(* variant generation (seeded layout shuffle + padding + gadget-       *)
(* breaking rewrites over the whole image), diversified CoW fork       *)
(* latency vs a plain fork, and the mitigated interpreter's benign-    *)
(* parse overhead vs the plain hot loop — which must stay at or below *)
(* the sanitizer's ~1.9x parse budget.                                 *)
(*                                                                     *)
(*   dune exec bench/main.exe -- diversity           (full run)        *)
(*   dune exec bench/main.exe -- diversity --smoke   (few iterations)  *)
(*   dune build @diversity-bench-smoke               (dune target)     *)
(* ------------------------------------------------------------------ *)

let run_diversity_json ~smoke ~out () =
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Format.printf "=== Software-diversity benches%s ===@.@."
    (if smoke then " (smoke: few iterations)" else "");
  let per_arch arch =
    let aname = Loader.Arch.name arch in
    (* Variant plan: the whole diversification pipeline (seeded layout
       shuffle, per-chunk padding, equivalence rewrites) over the
       Connman image, fresh seed each call. *)
    let seed = ref 0 in
    let plan () =
      incr seed;
      match arch with
      | Loader.Arch.X86 ->
          ignore
            (Connman.Program_x86.variant_plan ~version:Connman.Version.v1_34
               ~profile:Profile.wx ~seed:!seed)
      | Loader.Arch.Arm ->
          ignore
            (Connman.Program_arm.variant_plan ~version:Connman.Version.v1_34
               ~profile:Profile.wx ~seed:!seed)
    in
    let plan_ns, plan_r2 =
      time_fn cfg ("diversity/variant-gen-" ^ aname) plan
    in
    (* Diversified spawn: CoW fork + in-place reimage of the variant,
       against the plain fork the fleet pays today. *)
    let tpl = Dnsproxy.create (mk_config arch Profile.wx 1) in
    let fork_ns, fork_r2 =
      time_fn cfg ("diversity/fork-plain-" ^ aname) (fun () ->
          ignore (Dnsproxy.fork tpl))
    in
    let dseed = ref 0 in
    let dfork_ns, dfork_r2 =
      time_fn cfg ("diversity/fork-div-" ^ aname) (fun () ->
          incr dseed;
          ignore (Dnsproxy.fork_diversified tpl ~diversity_seed:!dseed))
    in
    let fork_overhead = if fork_ns > 0.0 then dfork_ns /. fork_ns else 0.0 in
    (* Benign parse through the mitigated interpreter entry point
       (shadow return stack + forward-edge CFI) vs the plain hot loop. *)
    let parse mitigated =
      let profile =
        if mitigated then Profile.with_mitigations Profile.wx else Profile.wx
      in
      let d = Dnsproxy.create (mk_config arch profile 9) in
      fun () -> ignore (Dnsproxy.handle_response d (benign_wire d))
    in
    let p_ns, p_r2 =
      time_fn cfg ("diversity/parse-plain-" ^ aname) (parse false)
    in
    let m_ns, m_r2 =
      time_fn cfg ("diversity/parse-mitigated-" ^ aname) (parse true)
    in
    let parse_overhead = if p_ns > 0.0 then m_ns /. p_ns else 0.0 in
    Format.printf "%-8s variant-gen %12s   fork %12s -> %12s (%4.2fx)@." aname
      (pretty_nanos plan_ns) (pretty_nanos fork_ns) (pretty_nanos dfork_ns)
      fork_overhead;
    Format.printf "%-8s parse %12s -> %12s   mitigated overhead %4.2fx@." ""
      (pretty_nanos p_ns) (pretty_nanos m_ns) parse_overhead;
    [
      bench_row ("diversity/variant-gen-" ^ aname) "ns_per_op" plan_ns
        ~extra:
          [
            ("variants_per_sec", if plan_ns > 0.0 then 1e9 /. plan_ns else 0.0);
            ("r_square", plan_r2);
          ];
      bench_row ("diversity/fork-plain-" ^ aname) "ns_per_op" fork_ns
        ~extra:[ ("r_square", fork_r2) ];
      bench_row ("diversity/fork-div-" ^ aname) "ns_per_op" dfork_ns
        ~extra:
          [
            ("devices_per_sec", if dfork_ns > 0.0 then 1e9 /. dfork_ns else 0.0);
            ("r_square", dfork_r2);
          ];
      bench_row ("diversity/fork-" ^ aname ^ "/overhead") "ratio" fork_overhead;
      bench_row ("diversity/parse-plain-" ^ aname) "ns_per_run" p_ns
        ~extra:[ ("r_square", p_r2) ];
      bench_row ("diversity/parse-mitigated-" ^ aname) "ns_per_run" m_ns
        ~extra:[ ("r_square", m_r2) ];
      bench_row
        ("diversity/parse-" ^ aname ^ "/overhead")
        "ratio" parse_overhead;
    ]
  in
  write_bench_json ~suite:"diversity" ~smoke ~out
    (List.concat_map per_arch Loader.Arch.all)

(* ------------------------------------------------------------------ *)
(* Bench regression gate: compare two bench-suite-v1 files             *)
(*                                                                     *)
(*   dune exec bench/main.exe -- regress --base OLD.json \              *)
(*     --new NEW.json [--tolerance 10]                                 *)
(*   dune build @bench-regress-smoke              (self-compare check) *)
(*                                                                     *)
(* Rows are matched by name; the comparison is direction-aware by       *)
(* unit (ns_* smaller-better, events_per_sec larger-better, ratios     *)
(* larger-better except .../overhead rows).  Any row whose regression  *)
(* exceeds the tolerance fails the run (exit 1).                       *)
(* ------------------------------------------------------------------ *)

(* [`Smaller]: a smaller value is better (times, overheads). *)
let regress_direction ~unit_ ~name =
  match unit_ with
  | "ns_per_op" | "ns_per_run" -> `Smaller
  | "events_per_sec" -> `Larger
  | "ratio" ->
      if
        String.length name >= 8
        && String.sub name (String.length name - 8) 8 = "overhead"
      then `Smaller
      else `Larger
  | _ -> `Larger

let run_regress ~base ~next ~tolerance () =
  let module J = Telemetry.Json in
  let load path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    match J.parse text with
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
    | Ok v -> v
  in
  let rows path v =
    match
      ( Option.bind (J.member "schema" v) J.to_string,
        Option.bind (J.member "results" v) J.to_list )
    with
    | Some "bench-suite-v1", Some rs ->
        List.filter_map
          (fun r ->
            match
              ( Option.bind (J.member "name" r) J.to_string,
                Option.bind (J.member "unit" r) J.to_string,
                Option.bind (J.member "value" r) J.to_float )
            with
            | Some n, Some u, Some value -> Some (n, (u, value))
            | _ -> None)
          rs
    | Some "bench-suite-v1", None ->
        failwith (path ^ ": missing \"results\" array")
    | Some other, _ ->
        failwith (Printf.sprintf "%s: schema %S is not bench-suite-v1" path other)
    | None, _ -> failwith (path ^ ": missing \"schema\"")
  in
  let base_rows = rows base (load base) in
  let next_rows = rows next (load next) in
  Format.printf "=== Bench regression gate (tolerance %.1f%%) ===@.@."
    tolerance;
  Format.printf "  base: %s@.  new:  %s@.@." base next;
  Format.printf "%-40s %6s %14s %14s %9s  %s@." "bench" "unit" "base" "new"
    "delta" "verdict";
  Format.printf "%s@." (String.make 96 '-');
  let regressions = ref 0 and compared = ref 0 in
  List.iter
    (fun (name, (unit_, bv)) ->
      match List.assoc_opt name next_rows with
      | None -> Format.printf "%-40s %6s : dropped from new run@." name unit_
      | Some (nunit, _) when nunit <> unit_ ->
          incr regressions;
          Format.printf "%-40s : unit changed %s -> %s  REGRESSED@." name
            unit_ nunit
      | Some (_, nv) ->
          incr compared;
          (* Positive delta = worse, whichever way the unit points. *)
          let delta_pct =
            if bv = 0.0 then 0.0
            else
              match regress_direction ~unit_ ~name with
              | `Smaller -> (nv -. bv) /. bv *. 100.0
              | `Larger -> (bv -. nv) /. bv *. 100.0
          in
          let bad = delta_pct > tolerance in
          if bad then incr regressions;
          Format.printf "%-40s %6s %14.4f %14.4f %+8.2f%%  %s@." name
            (match unit_ with
            | "events_per_sec" -> "ev/s"
            | "ns_per_op" -> "ns/op"
            | "ns_per_run" -> "ns/run"
            | u -> u)
            bv nv delta_pct
            (if bad then "REGRESSED" else "ok"))
    base_rows;
  List.iter
    (fun (name, (unit_, _)) ->
      if not (List.mem_assoc name base_rows) then
        Format.printf "%-40s %6s : new bench (no baseline)@." name unit_)
    next_rows;
  Format.printf "@.%d compared, %d regression(s)@." !compared !regressions;
  if !regressions > 0 then exit 1

let () =
  let argv = Array.to_list Sys.argv in
  let out_of default argv =
    let rec go = function
      | "--out" :: path :: _ -> path
      | _ :: rest -> go rest
      | [] -> default
    in
    go argv
  in
  let flag_value name argv =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let smoke = List.mem "--smoke" argv in
  if List.mem "regress" argv then begin
    match (flag_value "--base" argv, flag_value "--new" argv) with
    | Some base, Some next ->
        let tolerance =
          match flag_value "--tolerance" argv with
          | None -> 10.0
          | Some t -> (
              match float_of_string_opt t with
              | Some t when t >= 0.0 -> t
              | _ -> failwith ("regress: bad --tolerance " ^ t))
        in
        run_regress ~base ~next ~tolerance ()
    | _ ->
        prerr_endline
          "usage: regress --base OLD.json --new NEW.json [--tolerance PCT]";
        exit 2
  end
  else if List.mem "all" argv then begin
    (* Every JSON suite in one run; --out is a directory prefix here. *)
    let dir = out_of "." argv in
    let path name = Filename.concat dir name in
    run_cache_json ~smoke ~out:(path "BENCH_cache.json") ();
    run_cpu_json ~smoke ~out:(path "BENCH_cpu.json") ();
    run_faults_json ~smoke ~out:(path "BENCH_faults.json") ();
    run_sanitizer_json ~smoke ~out:(path "BENCH_sanitizer.json") ();
    run_fuzz_json ~smoke ~out:(path "BENCH_fuzz.json") ();
    run_wire_json ~smoke ~out:(path "BENCH_wire.json") ();
    run_fleet_json ~smoke ~out:(path "BENCH_fleet.json") ();
    run_diversity_json ~smoke ~out:(path "BENCH_diversity.json") ()
  end
  else if List.mem "cache" argv then
    run_cache_json ~smoke ~out:(out_of "BENCH_cache.json" argv) ()
  else if List.mem "cpu" argv then
    run_cpu_json ~smoke ~out:(out_of "BENCH_cpu.json" argv) ()
  else if List.mem "faults" argv then
    run_faults_json ~smoke ~out:(out_of "BENCH_faults.json" argv) ()
  else if List.mem "sanitizer" argv then
    run_sanitizer_json ~smoke ~out:(out_of "BENCH_sanitizer.json" argv) ()
  else if List.mem "fuzz" argv then
    run_fuzz_json ~smoke ~out:(out_of "BENCH_fuzz.json" argv) ()
  else if List.mem "wire" argv then
    run_wire_json ~smoke ~out:(out_of "BENCH_wire.json" argv) ()
  else if List.mem "fleet" argv then
    run_fleet_json ~smoke ~out:(out_of "BENCH_fleet.json" argv) ()
  else if List.mem "diversity" argv then
    run_diversity_json ~smoke ~out:(out_of "BENCH_diversity.json" argv) ()
  else begin
    print_experiments ();
    print_parse_costs ();
    run_benchmarks ()
  end
