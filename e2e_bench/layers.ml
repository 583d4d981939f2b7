(* Per-layer probes for the traced run.

   Every number here is measured from outside, by timing calls into one
   layer's public functions on inputs taken from the workloads: the
   daemon-stream responses (Connman host side, loader call, memsim,
   ISA loops, sanitizer, DNS), the fleet campaign (CoW forks, netsim
   delivery, monitor scrapes, report counts) and the fuzz loop (mutator,
   restore, coverage call, triage).  Each probe also checks what it
   replays: a replayed call must retire the step count the daemon
   retired for the same bytes, and the mirrored fuzz loop must produce
   the engine's stats byte for byte. *)

module D = Connman.Dnsproxy
module Process = Loader.Process
module Mem = Memsim.Memory
module Oracle = Sanitizer.Oracle

type metric = { name : string; value : float; unit_ : string }

type scale = {
  stream : Stream.size;
  per_daemon : int;  (* answers replayed per daemon *)
  reps : int;  (* timed repetitions of each replayed input *)
  fuzz_budget : int;
  fleet : seed:int -> Fleet.Campaign.config;
  forks : int;
}

let full =
  {
    stream = Stream.full;
    per_daemon = 24;
    reps = 5;
    fuzz_budget = Fuzz_wl.full_budget;
    fleet = Fleet_wl.config;
    forks = 200;
  }

let small =
  {
    stream = Stream.small;
    per_daemon = 4;
    reps = 2;
    fuzz_budget = 2000;
    fleet = Fleet_wl.small_config;
    forks = 10;
  }

type t = {
  mutable metrics : metric list;
  mutable attempted : int;
  mutable failed : int;
}

let add t name unit_ value = t.metrics <- { name; value; unit_ } :: t.metrics

let expect t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let get t name =
  match List.find_opt (fun m -> m.name = name) t.metrics with
  | Some m -> m.value
  | None -> invalid_arg ("Layers.get: " ^ name)

let us ns = Clock.us_of_ns ns
let med_us l = Stats.median_l (List.map us l)
let mean l = float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
let fuel = 400_000

(* Arm the taint oracle for one datagram exactly as the daemon does. *)
let arm oracle (p : Process.t) ~arch ~buf ~len =
  Oracle.begin_parse oracle;
  let src = Oracle.new_source oracle ~origin:"udp" ~length:len in
  Oracle.taint oracle ~src buf ~len;
  Oracle.protect_frame oracle ~buffer:(Connman.Frame.buffer_addr p)
    (Connman.Frame.geometry arch)

(* {1 ISA loops on a warm decoded-instruction cache}

   The parse is replayed straight through the interpreter entry points,
   with the call frame [Process.call] would build, on one CPU whose
   icache stays warm across runs — the cost a parse would have with no
   per-call set-up and no cold icache. *)

type mode = Plain | Mitigated | Profiled | Sanitized

let isa_modes = [ (Plain, "plain"); (Mitigated, "mitigated"); (Profiled, "profiled"); (Sanitized, "sanitized") ]

type machine = {
  reset : len:int -> unit;  (* a fresh call frame on the current CPU *)
  renew : unit -> unit;  (* replace the CPU by a new one (cold icache) *)
  run : mode -> Machine.Outcome.stop_reason;
  steps : unit -> int;
  misses : unit -> int;
}

(* The interpreter entry points both ISAs share. *)
module type ISA = sig
  type t
  type kernel

  val run :
    ?fuel:int -> traps:int list -> kernel:kernel -> t -> Machine.Outcome.stop_reason

  val run_traced :
    ?fuel:int ->
    traps:int list ->
    kernel:kernel ->
    ?trace:Telemetry.Trace.t ->
    ?profile:Telemetry.Profile.t ->
    t ->
    Machine.Outcome.stop_reason

  val run_sanitized :
    ?fuel:int ->
    traps:int list ->
    kernel:kernel ->
    oracle:Oracle.t ->
    t ->
    Machine.Outcome.stop_reason

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
end

let run_mode (type c k) (module C : ISA with type t = c and type kernel = k)
    ~(kernel : k) (p : Process.t) ~oracle ~prof mode (cpu : c) =
  let traps = [ p.Process.trap ] in
  match mode with
  | Plain -> C.run ~fuel ~traps ~kernel cpu
  | Mitigated ->
      C.run_mitigated ~fuel ~traps ~kernel ~shadow_stack:true ~forward_cfi:true
        ~valid_target:(Process.valid_target p) ~shadow0:traps cpu
  | Profiled -> C.run_traced ~fuel ~traps ~kernel ~profile:prof cpu
  | Sanitized -> C.run_sanitized ~fuel ~traps ~kernel ~oracle cpu

let x86_machine (p : Process.t) ~entry ~buf ~oracle ~prof =
  let module C = Isa_x86.Cpu in
  let cpu = ref (C.create p.Process.mem) in
  let kernel = Loader.Kernel.x86_policy () in
  {
    reset =
      (fun ~len ->
        let c = !cpu in
        Array.fill c.C.regs 0 (Array.length c.C.regs) 0;
        c.C.zf <- false;
        c.C.sf <- false;
        c.C.cf <- false;
        c.C.o_f <- false;
        c.C.shadow <- [];
        c.C.steps <- 0;
        C.set c Isa_x86.Insn.ESP (p.Process.layout.Loader.Layout.stack_top - 0x100);
        List.iter (C.push c) [ len; buf ];
        C.push c p.Process.trap;
        c.C.eip <- entry);
    renew = (fun () -> cpu := C.create p.Process.mem);
    run = (fun mode -> run_mode (module C) ~kernel p ~oracle ~prof mode !cpu);
    steps = (fun () -> !cpu.C.steps);
    misses = (fun () -> Option.fold ~none:0 ~some:Memsim.Icache.misses !cpu.C.icache);
  }

let arm_machine (p : Process.t) ~entry ~buf ~oracle ~prof =
  let module C = Isa_arm.Cpu in
  let cpu = ref (C.create p.Process.mem) in
  let kernel = Loader.Kernel.arm_policy () in
  {
    reset =
      (fun ~len ->
        let c = !cpu in
        Array.fill c.C.regs 0 (Array.length c.C.regs) 0;
        c.C.n <- false;
        c.C.z <- false;
        c.C.c <- false;
        c.C.v <- false;
        c.C.branched <- false;
        c.C.shadow <- [];
        c.C.steps <- 0;
        C.set c Isa_arm.Insn.SP (p.Process.layout.Loader.Layout.stack_top - 0x100);
        C.set c Isa_arm.Insn.R0 buf;
        C.set c Isa_arm.Insn.R1 len;
        C.set c Isa_arm.Insn.LR p.Process.trap;
        C.set_pc c entry);
    renew = (fun () -> cpu := C.create p.Process.mem);
    run = (fun mode -> run_mode (module C) ~kernel p ~oracle ~prof mode !cpu);
    steps = (fun () -> !cpu.C.steps);
    misses = (fun () -> Option.fold ~none:0 ~some:Memsim.Icache.misses !cpu.C.icache);
  }

(* [inputs]: (memory snapshot with the datagram in place, length, steps
   the loader call retired on it). *)
let probe_isa t ?spans ~reps ~arch (p : Process.t) inputs =
  let entry = Process.symbol p "parse_response" in
  let buf = p.Process.layout.Loader.Layout.heap_base in
  let oracle = Oracle.create () and prof = Telemetry.Profile.create () in
  let m =
    (match arch with
    | Loader.Arch.X86 -> x86_machine
    | Loader.Arch.Arm -> arm_machine)
      p ~entry ~buf ~oracle ~prof
  in
  let isa = Stream.isa_name arch in
  let once mode (snap, len, _) =
    Process.restore p snap;
    (match mode with
    | Sanitized -> arm oracle p ~arch ~buf ~len
    | Profiled -> Telemetry.Profile.clear prof
    | Plain | Mitigated -> ());
    m.reset ~len;
    let o, ns = Clock.time (fun () -> Spans.wrap spans (isa ^ ".run") (fun () -> m.run mode)) in
    (o, ns, m.steps ())
  in
  List.iter (fun (mode, _) -> List.iter (fun i -> ignore (once mode i)) inputs) isa_modes;
  let warm = Hashtbl.create 64 in
  List.iter
    (fun (mode, mname) ->
      let per_step = ref [] in
      for _ = 1 to reps do
        List.iteri
          (fun k ((_, _, want) as i) ->
            let o, ns, steps = once mode i in
            expect t (o = Machine.Outcome.Halted && steps = want);
            if mode = Plain then
              Hashtbl.replace warm k
                (ns :: Option.value (Hashtbl.find_opt warm k) ~default:[]);
            per_step := (float_of_int ns /. float_of_int (max 1 steps)) :: !per_step)
          inputs
      done;
      add t (Printf.sprintf "%s.ns_per_step.%s" isa mname) "ns"
        (Stats.median_l !per_step))
    isa_modes;
  (* A cold icache costs the difference to the warm run, per miss. *)
  let per_miss = ref [] in
  for _ = 1 to reps do
    List.iteri
      (fun k i ->
        m.renew ();
        let _, ns, _ = once Plain i in
        let warm_ns = Stats.median_l (List.map float_of_int (Hashtbl.find warm k)) in
        per_miss :=
          ((float_of_int ns -. warm_ns) /. 1e3 /. float_of_int (max 1 (m.misses ())))
          :: !per_miss)
      inputs
  done;
  add t ("memsim.icache_miss_us." ^ Stream.arch_name arch) "us" (Stats.median_l !per_miss)

(* {1 Connman, loader, memsim, sanitizer, DNS: replays of the stream} *)

let probe_daemons t ?spans ~scale ~seed () =
  let stream = Stream.generate ~size:scale.stream ~seed () in
  let c = Stream.client () in
  Array.iter
    (fun r ->
      Stream.issue c r;
      expect t
        (Stream.check c r (D.handle_response c.Stream.ds.(r.Stream.daemon) (Stream.wire c r))))
    stream;
  let answers d =
    Array.to_list stream
    |> List.filter (fun r -> r.Stream.daemon = d && r.Stream.issue <> None && r.Stream.key >= 0)
    |> List.filteri (fun i _ -> i < scale.per_daemon)
  in
  let make_query = ref [] and drops = ref [] in
  let plain_inputs = Hashtbl.create 2 in
  for d = 0 to Stream.daemons - 1 do
    let arch = Stream.arch_of d and mode = Stream.mode_of d in
    let tag = Stream.arch_name arch ^ "." ^ Stream.mode_name mode in
    let rs = answers d in
    (* Replays of the same bytes run on a CoW fork of the daemon's
       process, each right after the daemon's own handling, so the
       host-side share is a paired difference. *)
    let proc = D.process c.Stream.ds.(d) in
    let p = Process.fork proc (Process.snapshot proc) in
    let base = Process.snapshot p in
    let entry = Process.symbol p "parse_response" in
    let buf = p.Process.layout.Loader.Layout.heap_base in
    let oracle = if mode = Stream.Sanitized then Some (Oracle.create ()) else None in
    let call ~icache r =
      Process.restore p base;
      let w = r.Stream.wire and len = String.length r.Stream.wire in
      Mem.write_bytes p.Process.mem buf w;
      let (), arm_ns =
        Clock.time (fun () -> Option.iter (fun o -> arm o p ~arch ~buf ~len) oracle)
      in
      let res, ns =
        Clock.time (fun () ->
            Spans.wrap spans
              (if icache then "loader.call" else "loader.call_uncached")
              (fun () ->
                Process.call p ~fuel ~icache ?sanitizer:oracle ~entry ~args:[ buf; len ]))
      in
      expect t
        (res.Process.outcome = Machine.Outcome.Halted
        && Some res.Process.steps = Hashtbl.find_opt c.Stream.steps r.Stream.key);
      (res, ns, arm_ns + ns)
    in
    let hr = ref [] and host = ref [] and calls = ref [] and armed = ref [] in
    let uncached = ref [] and snaps = ref [] and results = ref [] in
    for _ = 1 to scale.reps do
      List.iter
        (fun r ->
          let (), q =
            Clock.time (fun () ->
                Spans.wrap spans "connman.make_query" (fun () -> Stream.issue c r))
          in
          make_query := q :: !make_query;
          let w = Stream.wire c r in
          let disp, h =
            Clock.time (fun () ->
                Spans.wrap spans "connman.handle_response" (fun () ->
                    D.handle_response c.Stream.ds.(d) w))
          in
          expect t (Stream.check c r disp);
          hr := h :: !hr;
          let res, ns, with_arm = call ~icache:true r in
          calls := ns :: !calls;
          armed := with_arm :: !armed;
          host := (h - if mode = Stream.Sanitized then with_arm else ns) :: !host;
          results := res :: !results;
          let _, sn =
            Clock.time (fun () ->
                Spans.wrap spans "memsim.snapshot" (fun () -> Process.snapshot p))
          in
          snaps := sn :: !snaps;
          let _, ns, _ = call ~icache:false r in
          uncached := ns :: !uncached;
          let stray =
            Stream.answer_wire ~id:Stream.stray_id ~compress:false
              (Option.get r.Stream.issue) ~answers:1
          in
          let disp, ns =
            Clock.time (fun () ->
                Spans.wrap spans "connman.drop" (fun () ->
                    D.handle_response c.Stream.ds.(d) stray))
          in
          expect t (disp = D.Dropped "unknown transaction id");
          drops := ns :: !drops)
        rs
    done;
    add t ("connman.handle_response_us." ^ tag) "us" (med_us !hr);
    add t ("connman.host_us." ^ tag) "us" (med_us !host);
    add t ("loader.call_us." ^ tag) "us" (med_us !calls);
    add t ("loader.call_uncached_us." ^ tag) "us" (med_us !uncached);
    let an = Stream.arch_name arch in
    (match mode with
    | Stream.Sanitized -> add t ("sanitizer.call_us." ^ an) "us" (med_us !armed)
    | Stream.Mitigated -> ()
    | Stream.Plain ->
        let field f = List.map f !results in
        let hits = field (fun r -> r.Process.icache_hits)
        and misses = field (fun r -> r.Process.icache_misses) in
        add t ("loader.steps_per_call." ^ an) "steps" (mean (field (fun r -> r.Process.steps)));
        add t ("memsim.icache_hits_per_call." ^ an) "count" (mean hits);
        add t ("memsim.icache_misses_per_call." ^ an) "count" (mean misses);
        add t ("memsim.icache_hit_ratio." ^ an) "ratio"
          (let h = mean hits in h /. (h +. mean misses));
        add t ("memsim.snapshot_us." ^ an) "us" (med_us !snaps);
        Hashtbl.replace plain_inputs arch
          ( p,
            List.map
              (fun r ->
                Process.restore p base;
                Mem.write_bytes p.Process.mem buf r.Stream.wire;
                ( Process.snapshot p,
                  String.length r.Stream.wire,
                  Hashtbl.find c.Stream.steps r.Stream.key ))
              rs ))
  done;
  add t "connman.make_query_us" "us" (med_us !make_query);
  add t "connman.drop_us" "us" (med_us !drops);
  let drop, total =
    Array.fold_left
      (fun (d, n) r -> ((if r.Stream.key < 0 then d + 1 else d), n + 1))
      (0, 0) stream
  in
  add t "connman.drop_share" "ratio" (float_of_int drop /. float_of_int total);
  Array.iter
    (fun arch ->
      let p, inputs = Hashtbl.find plain_inputs arch in
      probe_isa t ?spans ~reps:scale.reps ~arch p inputs)
    Stream.archs;
  (* DNS host-side layers, in batches over the stream's answers. *)
  let wires =
    Array.to_list stream
    |> List.filter (fun r -> r.Stream.key >= 0)
    |> List.map (fun r -> r.Stream.wire)
  in
  let names = List.map (fun w -> Dns.Wire.name_to_string w 12) wires in
  let n = float_of_int (List.length wires) in
  let batch name f =
    let per =
      List.init (20 * scale.reps) (fun _ ->
          let (), ns = Clock.time (fun () -> Spans.wrap spans name f) in
          us ns /. n)
    in
    Stats.median_l per
  in
  let view = Dns.Wire.create_view () in
  add t "dns.wire_parse_us" "us"
    (batch "dns.wire_parse" (fun () ->
         List.iter (fun w -> ignore (Dns.Wire.parse view w)) wires));
  let cache = Dns.Cache.create () in
  add t "dns.cache_insert_us" "us"
    (batch "dns.cache_insert" (fun () ->
         List.iter (fun name -> Dns.Cache.insert cache ~now:0 ~name ~ttl:300 ~ipv4:1) names));
  add t "dns.cache_find_us" "us"
    (batch "dns.cache_find" (fun () ->
         List.iter (fun name -> ignore (Dns.Cache.find cache ~now:0 name)) names));
  (* One fleet lookup's codec work: the device encodes its query, the
     resolver decodes it and encodes the answer. *)
  add t "dns.codec_us" "us"
    (batch "dns.codec" (fun () ->
         List.iter
           (fun name ->
             let qname = Dns.Name.of_string name in
             let wire = Dns.Packet.encode (Dns.Packet.query ~id:7 qname Dns.Packet.A) in
             match Dns.Packet.decode wire with
             | Ok query ->
                 ignore
                   (Dns.Packet.encode
                      (Dns.Packet.response ~query
                         [ Dns.Packet.a_record qname ~ttl:300 ~ipv4:1 ]))
             | Error e -> failwith e)
           names));
  Array.iter
    (fun arch ->
      let spec =
        match arch with
        | Loader.Arch.X86 -> Connman.Program_x86.spec ~version:Connman.Version.v1_34 ~profile:Defense.Profile.wx ()
        | Loader.Arch.Arm -> Connman.Program_arm.spec ~version:Connman.Version.v1_34 ~profile:Defense.Profile.wx ()
      in
      let boots =
        List.init (4 * scale.reps) (fun i ->
            snd
              (Clock.time (fun () ->
                   Spans.wrap spans "loader.boot" (fun () ->
                       Process.boot spec ~profile:Defense.Profile.wx ~seed:(seed + i)))))
      in
      add t ("loader.boot_us." ^ Stream.arch_name arch) "us" (med_us boots))
    Stream.archs

(* {1 Fleet layers} *)

let probe_fleet t ?spans ~scale ~seed () =
  let cfg = scale.fleet ~seed in
  let template =
    D.create { D.default_config with D.arch = cfg.Fleet.Campaign.arch; boot_seed = seed }
  in
  let forks =
    List.init scale.forks (fun _ ->
        snd (Clock.time (fun () -> Spans.wrap spans "connman.fork" (fun () -> D.fork template))))
  in
  add t "connman.fork_us" "us" (med_us forks);
  let div =
    List.init (max 1 (scale.forks / 4)) (fun i ->
        let diversity_seed = Diversity.Pool.seed_for ~master:seed i in
        snd
          (Clock.time (fun () ->
               Spans.wrap spans "connman.fork_diversified" (fun () ->
                   D.fork_diversified template ~diversity_seed))))
  in
  add t "connman.fork_diversified_us" "us" (med_us div);
  (* Netsim delivery: one LAN, datagrams to a listening host. *)
  let module W = Netsim.World in
  let w = W.create ~seed () in
  let lan = W.add_lan w ~name:"probe" in
  let host name ip =
    let h = W.add_host w ~name in
    W.set_host_ip h (Some (Netsim.Ip.of_string ip));
    W.attach h lan;
    h
  in
  let a = host "a" "10.0.0.2" and b = host "b" "10.0.0.3" in
  let got = ref 0 in
  W.on_udp b ~port:53 (fun _ _ -> incr got);
  let dst = Netsim.Ip.of_string "10.0.0.3" and n = 2000 in
  let per =
    List.init (4 * scale.reps) (fun _ ->
        snd
          (Clock.time (fun () ->
               Spans.wrap spans "netsim.deliver" (fun () ->
                   for _ = 1 to n do
                     W.send w ~from:a ~sport:5353 ~dst ~dport:53 "0123456789abcdef"
                   done;
                   ignore (W.run w)))))
  in
  expect t (!got = n * 4 * scale.reps);
  add t "netsim.deliver_us" "us" (med_us per /. float_of_int n);
  (* One campaign: exact counts from its report, then scrapes of its
     final registry. *)
  let c = Fleet_wl.run ?spans cfg in
  let r = c.Fleet_wl.report in
  expect t (Fleet.Campaign.ok r);
  let count name v = add t name "count" (float_of_int v) in
  count "netsim.events" r.Fleet.Campaign.r_events;
  count "netsim.delivered" r.Fleet.Campaign.r_delivered;
  count "netsim.dropped" r.Fleet.Campaign.r_dropped;
  count "fleet.lookups" r.Fleet.Campaign.r_lookups;
  count "fleet.parses" (Fleet_wl.parses r);
  count "fleet.forks" r.Fleet.Campaign.r_forks;
  count "core.restarts" r.Fleet.Campaign.r_restarts;
  add t "fleet.availability" "ratio" r.Fleet.Campaign.r_availability;
  add t "dns.cache_hit_ratio" "ratio"
    (let h = r.Fleet.Campaign.r_cache_hits and m = r.Fleet.Campaign.r_cache_misses in
     float_of_int h /. float_of_int (max 1 (h + m)));
  let mon = c.Fleet_wl.mon in
  let every = Telemetry.Monitor.interval_us mon in
  let last = Telemetry.Monitor.last_scrape_us mon in
  let scrapes =
    List.init (20 * scale.reps) (fun i ->
        snd
          (Clock.time (fun () ->
               Spans.wrap spans "telemetry.scrape" (fun () ->
                   Telemetry.Monitor.scrape mon ~now:(last + ((i + 1) * every))))))
  in
  add t "telemetry.scrape_us" "us" (med_us scrapes)

(* {1 Fuzz layers: the mirrored engine loop} *)

let probe_fuzz t ?spans ~scale ~seed () =
  let local = match spans with Some s -> s | None -> Spans.create () in
  List.iter
    (fun arch ->
      let an = Stream.arch_name arch in
      let cfg =
        Fuzz_wl.config ~budget:scale.fuzz_budget ~arch
          ~seed:(List.hd (Fuzz_wl.rotation ~seed))
      in
      let from = Spans.count local in
      let m = Fuzz_wl.mirror ~spans:local cfg in
      let engine = Fuzz.Engine.run cfg in
      expect t
        (Fuzz.Engine.stats_json m.Fuzz_wl.stats = Fuzz.Engine.stats_json engine
        && Fuzz_wl.rediscovered engine);
      let med name = Stats.median (Spans.durations_us local ~from name) in
      add t ("fuzz.coverage_call_us." ^ an) "us" (med "fuzz.coverage_call");
      add t ("fuzz.triage_us." ^ an) "us" (med "sanitizer.triage");
      add t ("memsim.restore_us." ^ an) "us" (med "memsim.restore");
      add t ("memsim.write_us." ^ an) "us" (med "memsim.write_bytes");
      if arch = Loader.Arch.X86 then begin
        add t "fuzz.mutate_us" "us" (med "fuzz.mutate");
        add t "fuzz.commit_us" "us" (med "fuzz.commit")
      end;
      let st = m.Fuzz_wl.stats in
      let count name v = add t (name ^ "." ^ an) "count" (float_of_int v) in
      count "fuzz.triage_calls" m.Fuzz_wl.triage_calls;
      count "fuzz.edges" st.Fuzz.Engine.edges;
      count "fuzz.corpus" st.Fuzz.Engine.corpus;
      add t ("fuzz.steps_per_exec." ^ an) "steps"
        (float_of_int st.Fuzz.Engine.total_steps
        /. float_of_int (st.Fuzz.Engine.execs + st.Fuzz.Engine.seed_inputs)))
    Fuzz_wl.archs

let run ?spans ~scale ~seed () =
  let t = { metrics = []; attempted = 0; failed = 0 } in
  probe_daemons t ?spans ~scale ~seed ();
  probe_fleet t ?spans ~scale ~seed ();
  probe_fuzz t ?spans ~scale ~seed ();
  t
