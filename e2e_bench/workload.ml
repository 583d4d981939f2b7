(* Measurement loops, the traced run and the cost ledger.

   A workload is a set-up (timed several times, median reported) and a
   batch — one pass of the daemon stream, one fuzz run per ISA, or one
   fleet campaign — repeated until the next batch would end past the
   time budget.  Ops are responses, fuzz execs or scheduler events. *)

module D = Connman.Dnsproxy
module E = Fuzz.Engine
module C = Fleet.Campaign

type scale = { layers : Layers.scale; setup_reps : int; fleet_setup_reps : int }

let full = { layers = Layers.full; setup_reps = 15; fleet_setup_reps = 5 }
let small = { layers = Layers.small; setup_reps = 2; fleet_setup_reps = 1 }
let names = [ "daemon-stream"; "fuzz"; "fleet" ]

type batch = { ops : int; bad : int; lat_us : float array }

(* What the ledger multiplies by unit costs, summed over the untraced
   batches. *)
type counts =
  | Stream_counts of {
      parsed : int array;  (* per daemon *)
      steps : int array;
      dropped : int array;
      queries : int array;
    }
  | Fuzz_counts of {
      batches : int ref;
      mirrors : (Loader.Arch.t * int, Fuzz_wl.mirror) Hashtbl.t;  (* from traced batches *)
    }
  | Fleet_counts of { campaigns : int ref; report : C.report option ref }

type measured = {
  setup_s : float list;
  attempted : int;
  failed : int;
  runs : (bool * batch * int) list;  (* traced?, batch, wall ns *)
  gc : float * float * float;  (* first batch: minor words/op, major words/op, major GCs *)
  peak_heap_mb : float;
  counts : counts;
}

(* [traced i] gives the span recorder for batch [i], if it is traced;
   at least one batch of each kind runs.  Batch 0 is untraced; its
   allocation is the [gc] figure.  The set-up runs [reps] times, each on
   a freshly collected heap: the first half before the batches, which use
   the last state, and the rest after them, so that the median does not
   hang on the machine's speed at one moment.  The peak heap is read
   before the second half, so it is the workload's. *)
let measure ~seconds ~reps ~setup ~warm ~batch ~counts ~traced =
  let min_batches = if traced 1 = None then 1 else 2 in
  let timed_setup _ =
    Gc.full_major ();
    Clock.time setup
  in
  let before = List.init (reps - (reps / 2)) timed_setup in
  let st = fst (List.nth before (List.length before - 1)) in
  let attempted = ref 0 and failed = ref 0 in
  let tally (b : batch) =
    attempted := !attempted + b.ops;
    failed := !failed + b.bad
  in
  if warm then tally (batch st None (-1));
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let gc = ref (0.0, 0.0, 0.0) in
  let rec go i acc =
    let spans = traced i in
    let b, ns = Clock.time (fun () -> batch st spans i) in
    tally b;
    if i = 0 then begin
      let g1 = Gc.quick_stat () and n = float_of_int (max 1 b.ops) in
      gc :=
        ( (g1.Gc.minor_words -. g0.Gc.minor_words) /. n,
          (g1.Gc.major_words -. g0.Gc.major_words) /. n,
          float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )
    end;
    let acc = (spans <> None, b, ns) :: acc in
    if i + 1 >= min_batches && Clock.now_ns () + ns > deadline then List.rev acc
    else go (i + 1) acc
  in
  let runs = go 0 [] in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let after = List.init (reps / 2) timed_setup in
  {
    setup_s = List.map (fun (_, ns) -> Clock.s_of_ns ns) (before @ after);
    attempted = !attempted;
    failed = !failed;
    runs;
    gc = !gc;
    peak_heap_mb;
    counts;
  }

let batches ~traced m = List.filter (fun (t, _, _) -> t = traced) m.runs
let wall_ns ~traced m = List.fold_left (fun a (_, _, ns) -> a + ns) 0 (batches ~traced m)

(* Ops per wall second over the batches of one kind. *)
let throughput ~traced m =
  let ops = List.fold_left (fun a (_, (b : batch), _) -> a + b.ops) 0 (batches ~traced m) in
  float_of_int ops /. Clock.s_of_ns (wall_ns ~traced m)

(* {1 The three workloads} *)

let daemon_stream ~traced ~scale ~seed ~seconds () =
  let parsed = Array.make Stream.daemons 0 and steps = Array.make Stream.daemons 0 in
  let dropped = Array.make Stream.daemons 0 and queries = Array.make Stream.daemons 0 in
  let setup () =
    let c = Stream.client () in
    (c, Stream.generate ~size:scale.layers.Layers.stream ~seed ())
  in
  let batch (c, stream) spans i =
    let bad = ref 0 in
    let lat =
      Array.mapi
        (fun k r ->
          let d = r.Stream.daemon in
          Spans.wrap spans ~op:((i * Array.length stream) + k) "client.op" (fun () ->
              Spans.wrap spans "connman.make_query" (fun () -> Stream.issue c r);
              let w = Stream.wire c r in
              let disp, ns =
                Clock.time (fun () ->
                    Spans.wrap spans "connman.handle_response" (fun () ->
                        D.handle_response c.Stream.ds.(d) w))
              in
              if not (Stream.check c r disp) then incr bad;
              if i >= 0 && spans = None then begin
                if r.Stream.issue <> None then queries.(d) <- queries.(d) + 1;
                if r.Stream.key >= 0 then begin
                  parsed.(d) <- parsed.(d) + 1;
                  steps.(d) <- steps.(d) + D.last_steps c.Stream.ds.(d)
                end
                else dropped.(d) <- dropped.(d) + 1
              end;
              Clock.us_of_ns ns))
        stream
    in
    { ops = Array.length stream; bad = !bad; lat_us = lat }
  in
  measure ~seconds ~reps:scale.setup_reps ~setup ~warm:true ~batch
    ~counts:(Stream_counts { parsed; steps; dropped; queries }) ~traced

let fuzz ~traced ~scale ~seed ~seconds () =
  let budget = scale.layers.Layers.fuzz_budget in
  let seeds = Fuzz_wl.rotation ~seed in
  (* Reference stats JSON per (ISA, engine seed): the first run's, which
     every later run, engine or mirror, must reproduce. *)
  let refs = Hashtbl.create 8 in
  let batches = ref 0 and mirrors = Hashtbl.create 8 in
  let setup () =
    List.iter
      (fun arch ->
        ignore (E.run (Fuzz_wl.config ~budget:0 ~arch ~seed:(List.hd seeds))))
      Fuzz_wl.archs
  in
  let one spans arch eseed =
    let cfg = Fuzz_wl.config ~budget ~arch ~seed:eseed in
    let st, ns =
      Clock.time (fun () ->
          match spans with
          | None -> E.run cfg
          | Some _ ->
              let m = Fuzz_wl.mirror ?spans cfg in
              Hashtbl.replace mirrors (arch, eseed) m;
              m.Fuzz_wl.stats)
    in
    let json = E.stats_json st in
    let same =
      match Hashtbl.find_opt refs (arch, eseed) with
      | Some j -> j = json
      | None ->
          Hashtbl.replace refs (arch, eseed) json;
          true
    in
    (st.E.execs, ns, same && Fuzz_wl.rediscovered st)
  in
  let batch () spans _ =
    let runs = List.map (fun eseed -> List.map (fun arch -> one spans arch eseed) Fuzz_wl.archs) seeds in
    if spans = None then incr batches;
    let sum f l = List.fold_left (fun a r -> a + f r) 0 l in
    let all = List.concat runs in
    {
      ops = sum (fun (e, _, _) -> e) all;
      bad = sum (fun (e, _, ok) -> if ok then 0 else e) all;
      (* Engine.run gives no per-exec timing, so the latency sample is
         the batch's mean exec time: one sample per batch. *)
      lat_us = [| Clock.us_of_ns (sum (fun (_, n, _) -> n) all) /. float_of_int (sum (fun (e, _, _) -> e) all) |];
    }
  in
  measure ~seconds ~reps:scale.setup_reps ~setup ~warm:false ~batch
    ~counts:(Fuzz_counts { batches; mirrors }) ~traced

let fleet ~traced ~scale ~seed ~seconds () =
  let cfg = scale.layers.Layers.fleet ~seed in
  let campaigns = ref 0 and report = ref None and json = ref None in
  let setup () =
    ignore (C.run ~monitor:(Fleet_wl.monitor ()) (Fleet_wl.setup_only cfg))
  in
  let batch () spans i =
    let c = Fleet_wl.run ?spans ~op:i cfg in
    let r = c.Fleet_wl.report in
    let same =
      match !json with
      | Some j -> j = c.Fleet_wl.json
      | None ->
          json := Some c.Fleet_wl.json;
          true
    in
    if spans = None then begin
      incr campaigns;
      report := Some r
    end;
    {
      ops = r.C.r_events;
      bad = (if same && C.ok r then 0 else r.C.r_events);
      lat_us = Array.of_list (Fleet_wl.epochs_us c);
    }
  in
  measure ~seconds ~reps:scale.fleet_setup_reps ~setup ~warm:false ~batch
    ~counts:(Fleet_counts { campaigns; report }) ~traced

let run_workload ~traced ~scale ~seed ~seconds = function
  | "daemon-stream" -> daemon_stream ~traced ~scale ~seed ~seconds ()
  | "fuzz" -> fuzz ~traced ~scale ~seed ~seconds ()
  | "fleet" -> fleet ~traced ~scale ~seed ~seconds ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* {1 Reports} *)

type report = {
  attempted : int;
  failed : int;
  metrics : Layers.metric list;  (* in print order *)
  notes : string list;  (* human-readable lines, printed before the result *)
}

let metric name unit_ value = { Layers.name; value; unit_ }

let end_to_end (m : measured) =
  let lat =
    Stats.sorted (Array.concat (List.map (fun (_, (b : batch), _) -> b.lat_us) m.runs))
  in
  [
    metric "setup_s" "s" (Stats.median_l m.setup_s);
    metric "throughput_ops_per_s" "1/s" (throughput ~traced:false m);
    metric "latency_us_p50" "us" (Stats.quantile_sorted lat 0.5);
    metric "latency_us_p99" "us" (Stats.quantile_sorted lat 0.99);
    metric "peak_heap_mb" "MB" m.peak_heap_mb;
    metric "success_rate" "ratio"
      (float_of_int (m.attempted - m.failed) /. float_of_int (max 1 m.attempted));
  ]

let untraced ~scale ~workload ~seed ~seconds =
  let (m : measured) =
    run_workload ~traced:(fun _ -> None) ~scale ~seed ~seconds workload
  in
  {
    attempted = m.attempted;
    failed = m.failed;
    metrics = end_to_end m;
    notes =
      [
        Printf.sprintf "%s seed %d: %d batches, %d ops in %.3f s, %d failed"
          workload seed (List.length m.runs) m.attempted
          (Clock.s_of_ns (wall_ns ~traced:false m))
          m.failed;
        Printf.sprintf "latency samples: %d; set-up repetitions: %d"
          (List.fold_left (fun a (_, (b : batch), _) -> a + Array.length b.lat_us) 0 m.runs)
          (List.length m.setup_s);
      ];
  }

(* {1 The cost ledger}

   Each line is a count from the untraced phase times a unit cost the
   probes measured in isolation (a median).  What the lines do not cover
   of the untraced wall time is the residual. *)

let ledger (m : measured) (l : Layers.t) =
  let g = Layers.get l in
  let us_ n u = float_of_int n *. u /. 1e6 in
  match m.counts with
  | Stream_counts c ->
      List.concat
        (List.init Stream.daemons (fun d ->
             let arch = Stream.arch_name (Stream.arch_of d) and mode = Stream.mode_of d in
             let tag = arch ^ "." ^ Stream.mode_name mode in
             let isa = Stream.isa_name (Stream.arch_of d) in
             let n = c.parsed.(d) in
             let per_call = g ("loader.call_us." ^ tag) in
             let interp =
               float_of_int c.steps.(d)
               *. g (Printf.sprintf "%s.ns_per_step.%s" isa (Stream.mode_name mode))
               /. 1e9
             in
             let fill = us_ n (g ("memsim.icache_misses_per_call." ^ arch) *. g ("memsim.icache_miss_us." ^ arch)) in
             [
               ("isa interpret, warm icache: " ^ tag, interp);
               ("memsim icache fill: " ^ tag, fill);
               ("loader call set-up and rest: " ^ tag, us_ n per_call -. interp -. fill);
               ( "sanitizer arming + connman host side: " ^ tag,
                 us_ n
                   ((if mode = Stream.Sanitized then g ("sanitizer.call_us." ^ arch) -. per_call
                     else 0.0)
                   +. g ("connman.host_us." ^ tag)) );
               ("connman drops: " ^ tag, us_ c.dropped.(d) (g "connman.drop_us"));
               ("connman make_query: " ^ tag, us_ c.queries.(d) (g "connman.make_query_us"));
             ]))
  | Fuzz_counts { batches; mirrors } ->
      (* Counts come from the traced batches' mirrored loop, which runs
         the same deterministic work as each untraced batch.  Hangs make
         per-call cost vary with the input, so the calls are priced by
         guest steps, plus the per-call set-up and icache fill a plain
         daemon call pays beyond its steps. *)
      List.concat_map
        (fun arch ->
          let an = Stream.arch_name arch in
          let isa = Stream.isa_name arch in
          let ms = Hashtbl.fold (fun (a, _) m acc -> if a = arch then m :: acc else acc) mirrors [] in
          let sum f = !batches * List.fold_left (fun a m -> a + f m) 0 ms in
          let execs = sum (fun m -> m.Fuzz_wl.stats.E.execs + m.Fuzz_wl.stats.E.seed_inputs) in
          let triage = sum (fun m -> m.Fuzz_wl.triage_calls) in
          let cov_steps = sum (fun m -> m.Fuzz_wl.cov_steps) in
          let triage_steps = sum (fun m -> m.Fuzz_wl.stats.E.total_steps - m.Fuzz_wl.cov_steps) in
          let per_call =
            g ("loader.call_us." ^ an ^ ".plain")
            -. (g ("loader.steps_per_call." ^ an) *. g (isa ^ ".ns_per_step.plain") /. 1e3)
          in
          let steps n mode = float_of_int n *. g (isa ^ ".ns_per_step." ^ mode) /. 1e9 in
          [
            ("fuzz mutate + coverage commit: " ^ an, us_ execs (g "fuzz.mutate_us" +. g "fuzz.commit_us"));
            ( "memsim restore + write: " ^ an,
              us_ (execs + triage) (g ("memsim.restore_us." ^ an) +. g ("memsim.write_us." ^ an)) );
            ("coverage calls, profiled steps: " ^ an, steps cov_steps "profiled");
            ("triage calls, sanitized steps: " ^ an, steps triage_steps "sanitized");
            ("call set-up and icache fill: " ^ an, us_ (execs + triage) per_call);
          ])
        Fuzz_wl.archs
  | Fleet_counts { campaigns; report } ->
      let r = Option.get !report and k = !campaigns in
      (* Diversified spawns are counted with the fleet's diversified share. *)
      let div = r.C.r_config.C.diversity_frac in
      [
        ("campaign set-up", float_of_int k *. Stats.median_l m.setup_s);
        ("connman parses (benign cost)", us_ (k * Fleet_wl.parses r) (g "connman.handle_response_us.x86.plain"));
        ( "connman CoW forks",
          us_ (k * r.C.r_forks)
            (((1.0 -. div) *. g "connman.fork_us") +. (div *. g "connman.fork_diversified_us")) );
        ("telemetry scrapes", us_ (k * (r.C.r_config.C.horizon_us / 1_000_000)) (g "telemetry.scrape_us"));
        ("dns codec per lookup", us_ (k * r.C.r_lookups) (g "dns.codec_us"));
        ("netsim deliveries", us_ (k * r.C.r_delivered) (g "netsim.deliver_us"));
      ]

(* {1 The traced run}

   Untraced and traced batches of the workload alternate on the same
   long-lived state (spans around every public call the loop makes), so
   heap growth and warm-up fall on both sides alike; then the per-layer
   probes run.  The ledger is priced against the untraced batches. *)

let traced ~scale ~workload ~seed ~seconds ~trace_file =
  let spans = Spans.create () in
  let m =
    run_workload ~scale ~seed ~seconds:(0.6 *. seconds) workload
      ~traced:(fun i -> if i mod 2 = 1 then Some spans else None)
  in
  Gc.full_major ();
  let l = Layers.run ~spans ~scale:scale.layers ~seed () in
  let lines = ledger m l in
  let attributed = List.fold_left (fun a (_, s) -> a +. s) 0.0 lines in
  let wall = Clock.s_of_ns (wall_ns ~traced:false m) in
  let attempted = m.attempted + l.Layers.attempted in
  let failed = m.failed + l.Layers.failed in
  let minor, major, majors = m.gc in
  let own =
    [
      metric "gc.minor_words_per_op" "words" minor;
      metric "gc.major_words_per_op" "words" major;
      metric "gc.major_collections" "count" majors;
      metric "error_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
      metric "trace.overhead_ratio" "ratio"
        (throughput ~traced:false m /. throughput ~traced:true m);
      metric "ledger.attributed_share" "ratio" (attributed /. wall);
      metric "ledger.residual_s" "s" (wall -. attributed);
    ]
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (Spans.to_json spans)))
    trace_file;
  let row name s = Printf.sprintf "  %-56s %9.4f s %6.2f%%" name s (100. *. s /. wall) in
  {
    attempted;
    failed;
    metrics = List.sort (fun a b -> compare a.Layers.name b.Layers.name) (l.Layers.metrics @ own);
    notes =
      [
        Printf.sprintf "%s seed %d traced: %d untraced and %d traced batches, %d spans"
          workload seed
          (List.length (batches ~traced:false m))
          (List.length (batches ~traced:true m))
          (Spans.count spans);
        Printf.sprintf "cost ledger against the untraced batches (%.3f s):" wall;
      ]
      @ List.map (fun (n, s) -> row n s) lines
      @ [ row "residual" (wall -. attributed); "self time per layer (traced batches and probes):" ]
      @ List.map (fun (n, s) -> Printf.sprintf "  %-20s %9.4f s" n s) (Spans.self_time spans)
      @ Option.fold ~none:[] ~some:(fun p -> [ "trace: " ^ p ]) trace_file;
  }
