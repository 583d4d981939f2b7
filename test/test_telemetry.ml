(* Telemetry tests: ring-buffer overflow semantics, byte-identical trace
   determinism, Chrome-JSON well-formedness, cross-layer coverage,
   profiler count conservation, metrics exposition, and the
   zero-interference contract — exploit-matrix outcomes are identical
   with the tracer and profiler attached. *)

module Tr = Telemetry.Trace
module Prof = Telemetry.Profile
module Met = Telemetry.Metrics
module E = Core.Experiments
module Dnsproxy = Connman.Dnsproxy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- ring buffer --- *)

let test_ring_overflow () =
  let t = Tr.create ~capacity:8 () in
  for i = 1 to 20 do
    Tr.emit t ~ts:i ~cat:"test" ~track:"ring" (Printf.sprintf "e%02d" i)
  done;
  check_int "capacity" 8 (Tr.capacity t);
  check_int "length" 8 (Tr.length t);
  check_int "emitted" 20 (Tr.emitted t);
  check_int "dropped" 12 (Tr.dropped t);
  Alcotest.(check (list string))
    "most recent window, oldest first"
    [ "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ]
    (List.map (fun e -> e.Tr.name) (Tr.events t))

let test_ring_under_capacity () =
  let t = Tr.create ~capacity:8 () in
  for i = 1 to 5 do
    Tr.emit t ~ts:i ~cat:"test" ~track:"ring" (Printf.sprintf "e%d" i)
  done;
  check_int "length" 5 (Tr.length t);
  check_int "nothing dropped" 0 (Tr.dropped t);
  Tr.clear t;
  check_int "cleared" 0 (Tr.length t)

let test_clock_is_monotonic () =
  let t = Tr.create () in
  Tr.set_now t 100;
  Tr.set_now t 50;
  check_int "earlier set_now ignored" 100 (Tr.now t)

(* --- instrumented cell runs --- *)

let traced_e3 seed =
  let trace = Tr.create () in
  match E.run_instrumented_cell ~seed ~cell:"E3" ~trace () with
  | Error e -> Alcotest.fail e
  | Ok (row, _) -> (trace, row)

let test_trace_determinism () =
  let t1, _ = traced_e3 5 in
  let t2, _ = traced_e3 5 in
  check_bool "events recorded" true (Tr.length t1 > 0);
  check_string "byte-identical chrome json" (Tr.to_chrome_json t1)
    (Tr.to_chrome_json t2)

let test_trace_json_well_formed () =
  let t, _ = traced_e3 1 in
  match Telemetry.Json.validate (Tr.to_chrome_json t) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid chrome json: " ^ e)

let test_trace_covers_layers () =
  let t, _ = traced_e3 1 in
  let cats =
    List.sort_uniq compare (List.map (fun e -> e.Tr.cat) (Tr.events t))
  in
  List.iter
    (fun c -> check_bool (c ^ " events present") true (List.mem c cats))
    [ "cpu"; "mem"; "net"; "daemon"; "supervisor" ]

let test_unknown_cell_and_schedule () =
  (match E.run_instrumented_cell ~cell:"E9" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown cell accepted");
  match E.run_instrumented_cell ~cell:"E3" ~schedule:"stormy" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schedule accepted"

(* --- zero interference: outcomes unchanged with telemetry attached --- *)

let fire_cell ~instrumented (id, _section, arch, profile, strategy, _desc) =
  let d =
    Dnsproxy.create
      {
        Dnsproxy.default_config with
        Dnsproxy.arch;
        profile;
        boot_seed = 42;
      }
  in
  if instrumented then begin
    Dnsproxy.set_trace d (Some (Tr.create ()));
    Dnsproxy.set_profiler d (Some (Prof.create ()))
  end;
  match E.fire ~strategy d with
  | Error e -> Alcotest.fail (id ^ ": " ^ e)
  | Ok (_, disp) -> (id, E.disposition_word disp, Dnsproxy.last_steps d)

let test_differential_outcomes () =
  let plain = List.map (fire_cell ~instrumented:false) E.matrix_cells in
  let traced = List.map (fire_cell ~instrumented:true) E.matrix_cells in
  List.iter2
    (fun (id, w0, s0) (_, w1, s1) ->
      check_string (id ^ " disposition") w0 w1;
      check_int (id ^ " retired instructions") s0 s1)
    plain traced

(* --- profiler --- *)

let test_profiler_buckets_by_symbol () =
  let p = Prof.create () in
  List.iter (Prof.record p) [ 16; 16; 20; 24; 16; 20 ];
  check_int "total" 6 (Prof.total p);
  check_int "distinct pcs" 3 (Prof.distinct_pcs p);
  let symbolize = function
    | 16 -> "fn_a+0x0"
    | 20 -> "fn_a+0x4"
    | _ -> "fn_b"
  in
  Alcotest.(check (list (pair string int)))
    "offsets aggregate under the base symbol"
    [ ("fn_a", 5); ("fn_b", 1) ]
    (Prof.report p ~symbolize);
  check_string "folded stacks" "all;fn_a 5\nall;fn_b 1\n"
    (Prof.folded p ~symbolize ());
  Prof.clear p;
  check_int "cleared" 0 (Prof.total p)

(* Reference profile: per-pc counts in a [Hashtbl], bucketed and sorted
   the way [report] documents it. *)
let reference_report pcs ~symbolize =
  let counts = Hashtbl.create 64 and by_sym = Hashtbl.create 64 in
  List.iter
    (fun pc ->
      Hashtbl.replace counts pc (1 + Option.value ~default:0 (Hashtbl.find_opt counts pc)))
    pcs;
  Hashtbl.iter
    (fun pc n ->
      let s = symbolize pc in
      let sym = match String.index_opt s '+' with Some i -> String.sub s 0 i | None -> s in
      Hashtbl.replace by_sym sym (n + Option.value ~default:0 (Hashtbl.find_opt by_sym sym)))
    counts;
  let rows = Hashtbl.fold (fun sym n acc -> (sym, n) :: acc) by_sym [] in
  ( Hashtbl.length counts,
    List.sort (fun (sa, na) (sb, nb) -> if na <> nb then compare nb na else compare sa sb) rows )

(* A few functions with offsets, plus bare addresses: ties between
   symbols are common, so the tie order is exercised. *)
let symbolize_for_test pc =
  if pc land 0x100 = 0 then Printf.sprintf "fn_%d+0x%x" (pc mod 7) (pc land 0xFF)
  else Printf.sprintf "0x%08x" pc

let prop_profile_matches_reference =
  let pc = QCheck.Gen.(oneof [ int_range 0 300; int_range 0 0xFFFF_FFFF ]) in
  QCheck.Test.make ~name:"report equals a Hashtbl reference" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 3000) pc))
    (fun pcs ->
      let p = Prof.create () in
      List.iter (Prof.record p) pcs;
      let distinct, rows = reference_report pcs ~symbolize:symbolize_for_test in
      Prof.total p = List.length pcs
      && Prof.distinct_pcs p = distinct
      && Prof.report p ~symbolize:symbolize_for_test = rows)

let test_profiler_grows () =
  let p = Prof.create () in
  (* 5000 distinct pcs, well past the initial 1024 slots; pc [i] is
     recorded [i mod 3 + 1] times in a row, so every growth moves counts
     above one. *)
  let n = 5000 in
  for i = 0 to n - 1 do
    for _ = 0 to i mod 3 do
      Prof.record p (0x8000_0000 + (4 * i))
    done
  done;
  check_int "distinct pcs" n (Prof.distinct_pcs p);
  check_int "total" (List.fold_left ( + ) 0 (List.init n (fun i -> (i mod 3) + 1))) (Prof.total p);
  let symbolize pc = Printf.sprintf "0x%x" pc in
  List.iter
    (fun (sym, count) ->
      let i = (int_of_string sym - 0x8000_0000) / 4 in
      if count <> (i mod 3) + 1 then Alcotest.failf "%s counted %d times" sym count)
    (Prof.report p ~symbolize)

let test_profiler_clear_reuse () =
  let p = Prof.create () in
  let symbolize = symbolize_for_test in
  let sum p = List.fold_left (fun a (_, n) -> a + n) 0 (Prof.report p ~symbolize) in
  let rng = Random.State.make [| 7 |] in
  let stream n = List.init n (fun _ -> Random.State.int rng 4000) in
  List.iter
    (fun pcs ->
      Prof.clear p;
      check_int "cleared: nothing recorded" 0 (Prof.total p);
      check_int "cleared: no pcs" 0 (Prof.distinct_pcs p);
      check_int "cleared: empty report" 0 (List.length (Prof.report p ~symbolize));
      List.iter (Prof.record p) pcs;
      let distinct, rows = reference_report pcs ~symbolize in
      check_int "total after reuse" (List.length pcs) (Prof.total p);
      check_int "conservation after reuse" (Prof.total p) (sum p);
      check_int "distinct pcs after reuse" distinct (Prof.distinct_pcs p);
      Alcotest.(check (list (pair string int))) "report after reuse" rows
        (Prof.report p ~symbolize))
    [ stream 5000; stream 10; []; stream 20_000; stream 3 ]

let test_profiler_conservation_daemon () =
  let d = Dnsproxy.create Dnsproxy.default_config in
  let p = Prof.create () in
  Dnsproxy.set_profiler d (Some p);
  let name = Dns.Name.of_string "ipv4.connman.net" in
  let query = Dnsproxy.make_query d name in
  let wire =
    Dns.Packet.encode
      (Dns.Packet.response ~query [ Dns.Packet.a_record name ~ttl:300 ~ipv4:1 ])
  in
  (match Dnsproxy.handle_response d wire with
  | Dnsproxy.Cached _ -> ()
  | other ->
      Alcotest.fail (Format.asprintf "%a" Dnsproxy.pp_disposition other));
  check_int "samples equal retired instructions" (Dnsproxy.last_steps d)
    (Prof.total p);
  let proc = Dnsproxy.process d in
  let symbolize pc = Exploit.Debugger.symbolize proc pc in
  let sum =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Prof.report p ~symbolize)
  in
  check_int "per-symbol counts sum to total" (Prof.total p) sum

let test_profiler_conservation_cell () =
  let p = Prof.create () in
  match E.run_instrumented_cell ~seed:1 ~cell:"E3" ~profiler:p () with
  | Error e -> Alcotest.fail e
  | Ok (_, symbolize) ->
      check_bool "instructions recorded" true (Prof.total p > 0);
      let sum =
        List.fold_left (fun a (_, n) -> a + n) 0 (Prof.report p ~symbolize)
      in
      check_int "conservation across the whole cell" (Prof.total p) sum

(* --- metrics --- *)

let test_metrics_exposition () =
  let reg = Met.create () in
  let c =
    Met.counter reg ~help:"requests seen"
      ~labels:[ ("host", "a") ]
      "demo_requests_total"
  in
  Met.inc c;
  Met.inc ~by:2.0 c;
  let g = Met.gauge reg ~help:"current depth" "demo_depth" in
  Met.set g 4.5;
  let h = Met.histogram reg ~help:"sizes" ~buckets:[ 1.; 10. ] "demo_size" in
  Met.observe h 0.5;
  Met.observe h 5.0;
  Met.observe h 50.0;
  check_string "exposition bytes"
    ("# HELP demo_depth current depth\n"
   ^ "# TYPE demo_depth gauge\n" ^ "demo_depth 4.500000\n"
   ^ "# HELP demo_requests_total requests seen\n"
   ^ "# TYPE demo_requests_total counter\n"
   ^ "demo_requests_total{host=\"a\"} 3\n" ^ "# HELP demo_size sizes\n"
   ^ "# TYPE demo_size histogram\n" ^ "demo_size_bucket{le=\"1\"} 1\n"
   ^ "demo_size_bucket{le=\"10\"} 2\n" ^ "demo_size_bucket{le=\"+Inf\"} 3\n"
   ^ "demo_size_sum 55.500000\n" ^ "demo_size_count 3\n")
    (Met.expose reg)

let test_metrics_reregistration_replaces () =
  let reg = Met.create () in
  let c1 = Met.counter reg "dup_total" in
  Met.inc ~by:9.0 c1;
  let c2 = Met.counter reg "dup_total" in
  Met.inc c2;
  check_string "latest registration wins"
    "# TYPE dup_total counter\ndup_total 1\n" (Met.expose reg)

let test_metrics_from_instrumented_cell () =
  let reg = Met.create () in
  match E.run_instrumented_cell ~seed:1 ~cell:"DoS" ~metrics:reg () with
  | Error e -> Alcotest.fail e
  | Ok (row, _) ->
      let text = Met.expose reg in
      check_bool "netsim counters exposed" true
        (contains text "netsim_delivered_total ");
      check_bool "daemon series exposed" true
        (contains text "daemon_restarts_total{daemon=\"connmand\"} ");
      check_bool "supervisor restarts agree with the chaos row" true
        (contains text
           (Printf.sprintf "supervisor_restarts_total{supervisor=\"victim\"} %d\n"
              row.E.restarts))

let () =
  Alcotest.run "telemetry"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow keeps the newest window" `Quick
            test_ring_overflow;
          Alcotest.test_case "under capacity drops nothing" `Quick
            test_ring_under_capacity;
          Alcotest.test_case "clock is monotonic" `Quick
            test_clock_is_monotonic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "same seed, byte-identical json" `Quick
            test_trace_determinism;
          Alcotest.test_case "chrome json is well-formed" `Quick
            test_trace_json_well_formed;
          Alcotest.test_case "events from every layer" `Quick
            test_trace_covers_layers;
          Alcotest.test_case "unknown cell/schedule rejected" `Quick
            test_unknown_cell_and_schedule;
        ] );
      ( "interference",
        [
          Alcotest.test_case "matrix outcomes unchanged when traced" `Slow
            test_differential_outcomes;
        ] );
      ( "profile",
        [
          Alcotest.test_case "buckets by base symbol" `Quick
            test_profiler_buckets_by_symbol;
          Alcotest.test_case "conserves one parse's instructions" `Quick
            test_profiler_conservation_daemon;
          Alcotest.test_case "conserves a whole chaos cell" `Quick
            test_profiler_conservation_cell;
          Alcotest.test_case "grows past 1024 distinct pcs" `Quick test_profiler_grows;
          Alcotest.test_case "clear keeps working across reuse" `Quick
            test_profiler_clear_reuse;
          QCheck_alcotest.to_alcotest prop_profile_matches_reference;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "deterministic exposition" `Quick
            test_metrics_exposition;
          Alcotest.test_case "re-registration replaces" `Quick
            test_metrics_reregistration_replaces;
          Alcotest.test_case "registry over an instrumented cell" `Quick
            test_metrics_from_instrumented_cell;
        ] );
    ]
