(* Tests of the benchmark itself, at reduced scale: the seeded inputs
   and every exact count repeat for one seed, and another seed yields
   the same metric names with no failed op. *)

open E2e

let scale = Workload.small
let names r = List.map (fun m -> m.Layers.name) r.Workload.metrics

(* Counts, ratios and step averages: everything not derived from a
   clock.  The gc counts are exact per process only — the second run here
   starts on the heap the first one left — so they are left out. *)
let exact r =
  let timed = [ "trace.overhead_ratio"; "ledger.attributed_share" ] in
  List.filter
    (fun m ->
      (not (List.mem m.Layers.unit_ [ "s"; "us"; "ns" ]))
      && (not (List.mem m.Layers.name timed))
      && not (String.starts_with ~prefix:"gc." m.Layers.name))
    r.Workload.metrics
  |> List.map (fun m -> (m.Layers.name, m.Layers.value))

let traced seed =
  Workload.traced ~scale ~workload:"fleet" ~seed ~seconds:0.5 ~trace_file:None

let test_stream () =
  let g seed = Stream.generate ~size:Stream.small ~seed () in
  Alcotest.(check bool) "same seed, same stream" true (g 5 = g 5);
  Alcotest.(check bool) "other seed, other stream" false (g 5 = g 6)

let test_exact () =
  let a = traced 1 and b = traced 1 in
  Alcotest.(check int) "no failed op" 0 a.Workload.failed;
  Alcotest.(check (list (pair string (float 0.0)))) "exact counts repeat" (exact a) (exact b);
  let c = traced 2 in
  Alcotest.(check (list string)) "same per-layer names" (names a) (names c);
  Alcotest.(check int) "no failed op, second seed" 0 c.Workload.failed

let test_untraced () =
  List.iter
    (fun workload ->
      let run seed = Workload.untraced ~scale ~workload ~seed ~seconds:0.2 in
      let a = run 1 and b = run 2 in
      Alcotest.(check (list string)) (workload ^ ": same names") (names a) (names b);
      List.iter
        (fun r -> Alcotest.(check int) (workload ^ ": no failed op") 0 r.Workload.failed)
        [ a; b ])
    Workload.names

let () =
  Alcotest.run "e2e_bench"
    [
      ( "benchmark",
        [
          Alcotest.test_case "seeded stream" `Quick test_stream;
          Alcotest.test_case "exact counts and names (traced)" `Slow test_exact;
          Alcotest.test_case "names and errors (untraced)" `Slow test_untraced;
        ] );
    ]
