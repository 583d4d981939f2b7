(* The fleet workload: the CLI's headline campaign — [Campaign.run] on
   [default_config] (1000 devices, 20 LANs, x86) with a quarter of the
   fleet diversified and the flight recorder attached with
   [default_rules].

   The monitor's scrapes are the only points inside a campaign the
   benchmark can observe from outside: a probe series registered in the
   monitor's registry reads the wall clock at every scrape (once per
   simulated second) and reports a constant 0, so the recorded data and
   the campaign stay unchanged.  The intervals between scrapes are the
   campaign's per-epoch latencies. *)

module C = Fleet.Campaign

let config ~seed = { C.default_config with C.seed; diversity_frac = 0.25 }
let small_config ~seed = { C.smoke_config with C.seed; diversity_frac = 0.25 }

(* The same campaign cut to its set-up: template boots, exploit planning,
   world build, one CoW fork per device, series registration.  With a
   1 us horizon no event runs. *)
let setup_only cfg = { cfg with C.round_gap_us = 1; horizon_us = 1 }

let monitor () =
  let mon = Telemetry.Monitor.create (Telemetry.Metrics.create ()) in
  (match Telemetry.Monitor.add_rules mon C.default_rules with
  | Ok _ -> ()
  | Error e -> failwith ("fleet rules: " ^ e));
  mon

type campaign = {
  report : C.report;
  json : string;
  ns : int;
  scrape_ns : int list;  (* wall clock at each scrape, in order *)
  mon : Telemetry.Monitor.t;
}

let run ?spans ?(op = 0) cfg =
  let mon = monitor () in
  let stamps = ref [] in
  Telemetry.Metrics.probe (Telemetry.Monitor.registry mon) ~kind:`Gauge
    "e2e_bench_scrape" (fun () ->
      stamps := Clock.now_ns () :: !stamps;
      0.0);
  Option.iter (fun s -> Spans.enter s ~op "fleet.campaign") spans;
  let report, ns = Clock.time (fun () -> C.run ~monitor:mon cfg) in
  let scrape_ns = List.rev !stamps in
  Option.iter
    (fun s ->
      let rec epochs = function
        | a :: (b :: _ as rest) ->
            Spans.record s "fleet.epoch" ~start_ns:a ~stop_ns:b;
            epochs rest
        | _ -> ()
      in
      epochs scrape_ns;
      Spans.leave s)
    spans;
  { report; json = C.json report; ns; scrape_ns; mon }

let epochs_us c =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (Clock.us_of_ns (b - a) :: acc) rest
    | _ -> List.rev acc
  in
  go [] c.scrape_ns

(* Parses that reached the machine-level parser: every answered lookup
   plus every compromise and crash. *)
let parses (r : C.report) = r.C.r_answered + r.C.r_compromises + r.C.r_crashes
