(* The daemon-stream workload: six long-lived Connman daemons — {x86,
   armv7} x {W^X, W^X + shadow stack + forward CFI, W^X + taint
   sanitizer} — each fed a seeded stream of responses to its own pending
   queries by one closed-loop client (next response only after the last
   disposition).

   The stream varies what the parse depends on: qname shape (2, 3 or
   5-7 labels), answer count (1-4 A records) and name compression.  A
   fixed share of items is disposed host-side before the machine-level
   parse: a stray response with an unknown txid, a spoofed answer whose
   question does not match (followed by the real answer), and NXDOMAIN.
   Every response carries the disposition it must get. *)

module D = Connman.Dnsproxy
module P = Dns.Packet
module Rng = Memsim.Rng

type mode = Plain | Mitigated | Sanitized

let archs = Array.of_list Loader.Arch.all
let modes = [| Plain; Mitigated; Sanitized |]
let daemons = Array.length archs * Array.length modes
let arch_of d = archs.(d / Array.length modes)
let mode_of d = modes.(d mod Array.length modes)
let arch_name = Loader.Arch.name

(* The interpreter module's name, as the per-layer metrics use it. *)
let isa_name = function Loader.Arch.X86 -> "isa_x86" | Loader.Arch.Arm -> "isa_arm"

let mode_name = function
  | Plain -> "plain"
  | Mitigated -> "mitigated"
  | Sanitized -> "sanitized"

let profile_of = function
  | Mitigated -> Defense.Profile.(with_mitigations wx)
  | Plain | Sanitized -> Defense.Profile.wx

let config_of d =
  {
    D.default_config with
    D.arch = arch_of d;
    profile = profile_of (mode_of d);
    boot_seed = 1 + d;
  }

let boot d =
  let t = D.create (config_of d) in
  if mode_of d = Sanitized then
    D.set_sanitizer t (Some (Sanitizer.Oracle.create ()));
  t

type response = {
  daemon : int;
  issue : Dns.Name.t option;  (* the client query sent before this response *)
  patch : bool;  (* stamp the daemon's latest txid into the wire *)
  wire : string;
  expect : D.disposition;
  key : int;  (* (arch, name, answers, compression) of a parsed answer; -1 otherwise *)
}

(* Sizes of one pass.  [items] client items per pass; one in [drop_every]
   items of each drop kind. *)
type size = { items : int; names : int }

let full = { items = 480; names = 48 }
let small = { items = 96; names = 12 }
let drop_every = 25

let label rng ~lo ~hi =
  let n = lo + Rng.int rng (hi - lo + 1) in
  String.init n (fun _ -> "abcdefghijklmnopqrstuvwxyz0123456789".[Rng.int rng 36])

(* Three qname shapes, drawn in turn: short, medium and deep. *)
let name rng i =
  match i mod 3 with
  | 0 -> [ label rng ~lo:1 ~hi:8; label rng ~lo:2 ~hi:3 ]
  | 1 -> List.init 3 (fun _ -> label rng ~lo:3 ~hi:10)
  | _ -> List.init (5 + Rng.int rng 3) (fun _ -> label rng ~lo:4 ~hi:12)

let answer_wire ?(id = 0) ~compress qname ~answers =
  let query = P.query ~id qname P.A in
  P.encode ~compress
    (P.response ~query
       (List.init answers (fun k ->
            P.a_record qname ~ttl:(60 * (k + 1)) ~ipv4:(0x0A000001 + k))))

let nxdomain_wire qname =
  let r = P.response ~query:(P.query ~id:0 qname P.A) [] in
  P.encode { r with P.header = { r.P.header with P.rcode = P.NXDomain } }

let stray_id = 0xBEEF

type kind = Answer | Stray | Spoof | Nx

(* The seeded input stream of one pass, in client order. *)
let generate ?(size = full) ~seed () =
  let rng = Rng.create (0x5EED0000 + seed) in
  let pool = Array.init size.names (name rng) in
  let kinds =
    Array.init size.items (fun i ->
        if i < size.items / drop_every then Stray
        else if i < 2 * size.items / drop_every then Spoof
        else if i < 3 * size.items / drop_every then Nx
        else Answer)
  in
  Rng.shuffle rng kinds;
  let owners = Array.init size.items (fun i -> i mod daemons) in
  Rng.shuffle rng owners;
  let out = ref [] in
  let emit r = out := r :: !out in
  Array.iteri
    (fun i kind ->
      let daemon = owners.(i) in
      let n = Rng.int rng size.names in
      let qname = pool.(n) in
      let answers = 1 + Rng.int rng 4 in
      let compress = Rng.bool rng in
      let a = daemon / Array.length modes in
      let key =
        (((((a * size.names) + n) * 4) + (answers - 1)) * 2)
        + Bool.to_int compress
      in
      let cached =
        {
          daemon;
          issue = Some qname;
          patch = true;
          wire = answer_wire ~compress qname ~answers;
          expect = D.Cached answers;
          key;
        }
      in
      match kind with
      | Answer -> emit cached
      | Stray ->
          emit
            {
              cached with
              issue = None;
              patch = false;
              wire = answer_wire ~id:stray_id ~compress qname ~answers;
              expect = D.Dropped "unknown transaction id";
              key = -1;
            }
      | Spoof ->
          let other = pool.((n + 1) mod size.names) in
          emit
            {
              cached with
              wire = answer_wire ~compress other ~answers;
              expect = D.Dropped "question mismatch";
              key = -1;
            };
          emit { cached with issue = None }
      | Nx ->
          emit
            {
              cached with
              wire = nxdomain_wire qname;
              expect = D.Dropped "nxdomain (negative cached)";
              key = -1;
            })
    kinds;
  Array.of_list (List.rev !out)

let with_id wire id =
  let b = Bytes.of_string wire in
  Bytes.set_uint16_be b 0 id;
  Bytes.unsafe_to_string b

(* Long-lived client state: the daemons, each one's latest txid, and the
   step count first seen per answer key. *)
type client = {
  ds : D.t array;
  txid : int array;
  steps : (int, int) Hashtbl.t;
}

let client () =
  {
    ds = Array.init daemons boot;
    txid = Array.make daemons 0;
    steps = Hashtbl.create 256;
  }

(* Send [r]'s client query, if it has one. *)
let issue c r =
  match r.issue with
  | Some q ->
      let p = D.make_query c.ds.(r.daemon) q in
      c.txid.(r.daemon) <- p.P.header.P.id
  | None -> ()

(* The bytes to deliver for [r]. *)
let wire c r = if r.patch then with_id r.wire c.txid.(r.daemon) else r.wire

(* Whether a response met its expectation: the
   expected disposition and, for parsed answers, the same step count
   every time the same (arch, shape) is parsed, in any mode. *)
let check c r d =
  d = r.expect
  && (r.key < 0
     ||
     let s = D.last_steps c.ds.(r.daemon) in
     match Hashtbl.find_opt c.steps r.key with
     | Some s0 -> s = s0
     | None ->
         Hashtbl.replace c.steps r.key s;
         true)
