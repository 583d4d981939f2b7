(* Tests for the core library: firmware catalogue, networked devices, the
   Pineapple scenario, and the experiment runner. *)

module W = Netsim.World
module Ip = Netsim.Ip
module Dnsproxy = Connman.Dnsproxy
open Core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- firmware --- *)

let test_firmware_catalog () =
  check_bool "non-empty" true (List.length Firmware.catalog >= 6);
  (match Firmware.find "openelec-8" with
  | Some fw ->
      check_bool "openelec vulnerable" true (Firmware.vulnerable fw);
      check_string "ships 1.34" "1.34" (Connman.Version.to_string fw.Firmware.connman)
  | None -> Alcotest.fail "openelec missing");
  (match Firmware.find "tizen-4" with
  | Some fw -> check_bool "tizen 4 patched" false (Firmware.vulnerable fw)
  | None -> Alcotest.fail "tizen-4 missing");
  check_bool "unknown" true (Firmware.find "nope" = None);
  (* Every catalogue entry boots. *)
  List.iter
    (fun fw ->
      let d = Dnsproxy.create (Firmware.to_config fw) in
      check_bool (fw.Firmware.name ^ " boots") true (Dnsproxy.alive d))
    Firmware.catalog

(* --- device on the network --- *)

let home_setup () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"home" in
  let router = W.add_host w ~name:"router" in
  W.set_host_ip router (Some (Ip.of_string "192.168.1.1"));
  W.attach router lan;
  Netsim.Dhcp.serve w router ~first_ip:(Ip.of_string "192.168.1.100")
    ~dns:(Ip.of_string "192.168.1.1");
  Netsim.Dns_server.resolver w router
    ~zone:[ ("ipv4.connman.net", Ip.of_string "93.184.216.34") ];
  let ap = Netsim.Wifi.ap ~name:"home-ap" ~ssid:"HomeWiFi" ~signal_dbm:(-55) lan in
  (w, ap)

let test_device_joins_and_checks_connectivity () =
  let w, ap = home_setup () in
  let device =
    Device.create w ~name:"tv"
      ~config:
        {
          Dnsproxy.version = Connman.Version.v1_34;
          arch = Loader.Arch.Arm;
          profile = Defense.Profile.wx;
          boot_seed = 3;
          diversity_seed = None;
        }
  in
  (match Device.join_wifi device [ ap ] ~ssid:"HomeWiFi" with
  | Some chosen -> check_string "ap" "home-ap" chosen.Netsim.Wifi.ap_name
  | None -> Alcotest.fail "no ap");
  ignore (W.run w);
  check_bool "got lease" true (W.host_ip (Device.host device) <> None);
  (match Device.last_disposition device with
  | Some (Dnsproxy.Cached n) -> check_int "connectivity cached" 1 n
  | other ->
      Alcotest.failf "expected Cached, got %s"
        (match other with
        | Some d -> Format.asprintf "%a" Dnsproxy.pp_disposition d
        | None -> "nothing"));
  check_bool "online" true (Device.state device = `Online);
  check_bool "device kept a log" true (List.length (Device.events device) >= 3)

let test_device_lookup_without_dns_is_noop () =
  let w, _ = home_setup () in
  let device =
    Device.create w ~name:"tv" ~config:Dnsproxy.default_config
  in
  Device.lookup device "example.com";
  ignore (W.run w);
  check_bool "no crash, no disposition" true (Device.last_disposition device = None)

(* --- the Pineapple scenario --- *)

let arm_config profile =
  {
    Dnsproxy.version = Connman.Version.v1_34;
    arch = Loader.Arch.Arm;
    profile;
    boot_seed = 21;
    diversity_seed = None;
  }

let test_pineapple_full_chain () =
  match Scenario.pineapple_attack ~config:(arm_config Defense.Profile.wx_aslr) () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check_string "starts at home" "home" r.Scenario.associated_before;
      check_string "hijacked to pineapple" "pineapple" r.Scenario.associated_after;
      (match r.Scenario.benign_disposition with
      | Some (Dnsproxy.Cached _) -> ()
      | _ -> Alcotest.fail "benign lookup should have been cached");
      check_bool "dns server switched" true
        (r.Scenario.dns_before <> r.Scenario.dns_after);
      Alcotest.(check (option string))
        "attacker dns"
        (Some "172.16.42.1")
        (Option.map Ip.to_string r.Scenario.dns_after);
      check_bool "at least one interception" true (r.Scenario.queries_intercepted >= 1);
      (match r.Scenario.attack_disposition with
      | Some (Dnsproxy.Compromised reason) ->
          check_bool "shell" true (Machine.Outcome.is_shell reason)
      | other ->
          Alcotest.failf "expected compromise, got %s"
            (match other with
            | Some d -> Format.asprintf "%a" Dnsproxy.pp_disposition d
            | None -> "nothing"));
      check_bool "device state" true (Device.state r.Scenario.device = `Compromised)

let test_pineapple_patched_firmware_survives () =
  let config = { (arm_config Defense.Profile.wx_aslr) with Dnsproxy.version = Connman.Version.v1_35 } in
  match Scenario.pineapple_attack ~config () with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      check_string "still hijacked (network level)" "pineapple"
        r.Scenario.associated_after;
      match r.Scenario.attack_disposition with
      | Some (Dnsproxy.Cached _) ->
          check_bool "device fine" true (Device.state r.Scenario.device = `Online)
      | other ->
          Alcotest.failf "patched device should parse safely, got %s"
            (match other with
            | Some d -> Format.asprintf "%a" Dnsproxy.pp_disposition d
            | None -> "nothing"))

let test_pineapple_cfi_blocks () =
  let config = arm_config Defense.Profile.(with_shadow_stack wx_aslr) in
  match Scenario.pineapple_attack ~config () with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match r.Scenario.attack_disposition with
      | Some (Dnsproxy.Blocked _) ->
          check_bool "blocked state" true (Device.state r.Scenario.device = `Blocked)
      | other ->
          Alcotest.failf "expected Blocked, got %s"
            (match other with
            | Some d -> Format.asprintf "%a" Dnsproxy.pp_disposition d
            | None -> "nothing"))

let test_pineapple_dos_strategy () =
  let config = arm_config Defense.Profile.wx in
  match
    Scenario.pineapple_attack ~strategy:Exploit.Autogen.Dos ~config ()
  with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match r.Scenario.attack_disposition with
      | Some (Dnsproxy.Crashed _) ->
          check_bool "crashed state" true (Device.state r.Scenario.device = `Crashed)
      | other ->
          Alcotest.failf "expected crash, got %s"
            (match other with
            | Some d -> Format.asprintf "%a" Dnsproxy.pp_disposition d
            | None -> "nothing"))

let test_automatic_roaming_hijack () =
  (* The Pineapple powers on *after* the device settled at home; periodic
     rescans must carry it over with no scripted re-join. *)
  let w, home_ap = home_setup () in
  let device =
    Device.create w ~name:"cam"
      ~config:{ Dnsproxy.default_config with Dnsproxy.arch = Loader.Arch.Arm }
  in
  let rogue_lan = W.add_lan w ~name:"rogue" in
  let aps_in_air = ref [ home_ap ] in
  ignore (Device.join_wifi device [ home_ap ] ~ssid:"HomeWiFi");
  Device.start_roaming device
    ~scan:(fun () -> !aps_in_air)
    ~ssid:"HomeWiFi" ~interval_us:50_000 ~rounds:10;
  (* Attacker arrives at t = 120 ms. *)
  Netsim.Sim.schedule (W.sim w) ~delay:120_000 (fun _ ->
      aps_in_air :=
        Netsim.Wifi.ap ~name:"rogue-ap" ~ssid:"HomeWiFi" ~signal_dbm:(-25)
          rogue_lan
        :: !aps_in_air);
  ignore (W.run w);
  (match W.lan_of (Device.host device) with
  | Some lan -> check_string "roamed onto the rogue lan" "rogue" (W.lan_name lan)
  | None -> Alcotest.fail "device fell off the network");
  check_bool "roaming logged" true
    (List.exists
       (fun l -> String.length l >= 7 && String.sub l 0 7 = "roaming")
       (Device.events device))

let test_roaming_stays_home_without_rogue () =
  let w, home_ap = home_setup () in
  let device =
    Device.create w ~name:"cam"
      ~config:{ Dnsproxy.default_config with Dnsproxy.arch = Loader.Arch.Arm }
  in
  ignore (Device.join_wifi device [ home_ap ] ~ssid:"HomeWiFi");
  Device.start_roaming device
    ~scan:(fun () -> [ home_ap ])
    ~ssid:"HomeWiFi" ~interval_us:50_000 ~rounds:5;
  ignore (W.run w);
  match W.lan_of (Device.host device) with
  | Some lan -> check_string "still home" "home" (W.lan_name lan)
  | None -> Alcotest.fail "device fell off the network"

(* --- botnet recruitment --- *)

let test_botnet_mixed_fleet () =
  (* Three vulnerable builds and one patched; the attacker recruits
     exactly the vulnerable ones. *)
  let pick n = Option.get (Firmware.find n) in
  let firmwares =
    [
      pick "openelec-8";
      pick "nest-like-thermostat";
      pick "ubuntu-mate-rpi3";
      pick "tizen-4";
    ]
  in
  let r = Scenario.botnet_recruitment ~firmwares () in
  check_int "recruited" 3 r.Scenario.recruited;
  check_int "resisted" 1 r.Scenario.resisted;
  List.iter
    (fun (name, status) ->
      let expected_recruited =
        not (String.length name >= 7 && String.sub name 0 7 = "tizen-4")
      in
      check_bool name (status = `Recruited) expected_recruited)
    r.Scenario.fleet

let test_botnet_patched_fleet_immune () =
  let tizen4 = Option.get (Firmware.find "tizen-4") in
  let r =
    Scenario.botnet_recruitment ~firmwares:[ tizen4; tizen4; tizen4 ] ()
  in
  check_int "no bots" 0 r.Scenario.recruited;
  check_int "all resisted" 3 r.Scenario.resisted

(* --- stats --- *)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-6))
    "stddev" 0.816497 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9))
    "rate" 0.25
    (Stats.binomial_rate ~hits:16 ~trials:64)

let test_wilson_interval () =
  let lo, hi = Stats.wilson_interval ~hits:50 ~trials:100 () in
  check_bool "contains p-hat" true (lo < 0.5 && 0.5 < hi);
  check_bool "reasonable width" true (hi -. lo < 0.25);
  (* Boundary behaviour. *)
  let lo0, _ = Stats.wilson_interval ~hits:0 ~trials:20 () in
  Alcotest.(check (float 1e-9)) "lo at 0 hits" 0.0 lo0;
  let _, hi1 = Stats.wilson_interval ~hits:20 ~trials:20 () in
  check_bool "hi at all hits covers 1" true
    (Stats.interval_contains (0.0, hi1) 1.0)

let prop_wilson_contains_phat =
  QCheck.Test.make ~name:"wilson interval contains the point estimate" ~count:300
    QCheck.(make Gen.(pair (int_range 1 500) (int_bound 500)))
    (fun (trials, h) ->
      let hits = min h trials in
      let iv = Stats.wilson_interval ~hits ~trials () in
      Stats.interval_contains iv (Stats.binomial_rate ~hits ~trials))

(* --- packet loss and retries --- *)

let test_lossy_network_retry_succeeds () =
  let w, ap = home_setup () in
  let device =
    Device.create w ~name:"tv"
      ~config:{ Dnsproxy.default_config with Dnsproxy.arch = Loader.Arch.Arm }
  in
  ignore (Device.join_wifi device [ ap ] ~ssid:"HomeWiFi");
  ignore (W.run w);
  (* Impair the link only after DHCP has configured the device
     (broadcasts honour the loss rate too, so a lossy join could leave
     the device unconfigured).  Individual lookups may be lost; retry
     until a response lands. *)
  W.set_loss w 0.5;
  Device.lookup_with_retry device "ipv4.connman.net" ~retries:30
    ~timeout_us:10_000;
  ignore (W.run w);
  (match Device.last_disposition device with
  | Some (Dnsproxy.Cached _) -> ()
  | other ->
      Alcotest.failf "expected eventual Cached, got %s"
        (match other with
        | Some d -> Format.asprintf "%a" Dnsproxy.pp_disposition d
        | None -> "nothing"));
  (* A few more lookups so the loss rate provably bites: one exchange
     can slip through unscathed, a dozen packets at 50% cannot. *)
  for _ = 1 to 5 do
    Device.lookup_with_retry device "ipv4.connman.net" ~retries:30
      ~timeout_us:10_000;
    ignore (W.run w)
  done;
  check_bool "some packets were lost" true ((W.stats w).W.dropped > 0)

let test_total_loss_never_delivers () =
  let w, ap = home_setup () in
  let device =
    Device.create w ~name:"tv"
      ~config:{ Dnsproxy.default_config with Dnsproxy.arch = Loader.Arch.Arm }
  in
  ignore (Device.join_wifi device [ ap ] ~ssid:"HomeWiFi");
  ignore (W.run w);
  let before = List.length (Device.dispositions device) in
  W.set_loss w 1.0;
  Device.lookup_with_retry device "ipv4.connman.net" ~retries:5 ~timeout_us:5_000;
  ignore (W.run w);
  check_int "no new responses" before (List.length (Device.dispositions device))

(* --- experiment runner --- *)

let test_experiment_rows_all_pass () =
  let rows = Experiments.all ~seed:2 () in
  check_bool "has all sections" true (List.length rows >= 40);
  List.iter
    (fun r ->
      check_bool
        (Printf.sprintf "%s: expected %s, observed %s" r.Experiments.id
           r.Experiments.expected r.Experiments.observed)
        true r.Experiments.ok)
    rows

let test_experiment_table_renders () =
  let rows = Experiments.e1_to_e6_matrix ~seed:3 () in
  let table = Format.asprintf "%a" Experiments.pp_table rows in
  check_bool "mentions E5" true
    (let contains hay needle =
       let n = String.length needle and h = String.length hay in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     contains table "E5" && contains table "PASS");
  let md = Format.asprintf "%a" Experiments.pp_markdown rows in
  check_bool "markdown rows" true (String.length md > 100)

(* Pinned output: digests of the seed-1 experiment table, its markdown
   rendering and the detection-matrix JSON, computed while every
   experiment group was still a hand-written function.  How the rows
   are produced may change; what they say may not. *)
let golden_digests () =
  let rows = Experiments.all ~seed:1 () in
  [
    ( "pp_table", "c132f4d42dd14f198111a19bfb012ed4",
      Format.asprintf "%a" Experiments.pp_table rows );
    ( "pp_markdown", "4b2e4c739281d19f12b436e3a9101c6e",
      Format.asprintf "%a" Experiments.pp_markdown rows );
    ( "detection_json", "ef9c4d3e021bf340ca231e73518709f0",
      Experiments.detection_json ~seed:1 (Experiments.detection_matrix ~seed:1 ()) );
  ]

let test_experiment_golden () =
  List.iter
    (fun (name, digest, text) ->
      check_string (name ^ " digest") digest (Digest.to_hex (Digest.string text)))
    (golden_digests ())

let () =
  Alcotest.run "core"
    [
      ("firmware", [ Alcotest.test_case "catalogue" `Quick test_firmware_catalog ]);
      ( "device",
        [
          Alcotest.test_case "joins wifi, runs connectivity check" `Quick
            test_device_joins_and_checks_connectivity;
          Alcotest.test_case "lookup without dns" `Quick
            test_device_lookup_without_dns_is_noop;
        ] );
      ( "pineapple scenario",
        [
          Alcotest.test_case "full §III-D chain" `Quick test_pineapple_full_chain;
          Alcotest.test_case "patched firmware survives" `Quick
            test_pineapple_patched_firmware_survives;
          Alcotest.test_case "CFI blocks the remote exploit" `Quick
            test_pineapple_cfi_blocks;
          Alcotest.test_case "DoS strategy crashes remotely" `Quick
            test_pineapple_dos_strategy;
        ] );
      ( "roaming",
        [
          Alcotest.test_case "auto-roams onto stronger rogue AP" `Quick
            test_automatic_roaming_hijack;
          Alcotest.test_case "stays home without rogue" `Quick
            test_roaming_stays_home_without_rogue;
        ] );
      ( "botnet",
        [
          Alcotest.test_case "mixed fleet recruitment" `Quick
            test_botnet_mixed_fleet;
          Alcotest.test_case "patched fleet immune" `Quick
            test_botnet_patched_fleet_immune;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
          QCheck_alcotest.to_alcotest prop_wilson_contains_phat;
        ] );
      ( "lossy network",
        [
          Alcotest.test_case "retry beats 50% loss" `Quick
            test_lossy_network_retry_succeeds;
          Alcotest.test_case "total loss never delivers" `Quick
            test_total_loss_never_delivers;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "all rows reproduce" `Slow test_experiment_rows_all_pass;
          Alcotest.test_case "tables render" `Quick test_experiment_table_renders;
          Alcotest.test_case "seed-1 digests pinned" `Slow test_experiment_golden;
        ] );
    ]
