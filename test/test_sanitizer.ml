(* Sanitizer tests: shadow-label encoding, oracle detection rules
   (redzones, return slots, tainted pc/syscall, per-parse dedup), the
   strict-observer contract (sanitized runs bit-identical to plain runs
   over the whole exploit matrix), the detection matrix itself, its
   deterministic JSON, zero false positives on benign traffic, and the
   wire-offset provenance round-trip on both ISAs. *)

module Shadow = Memsim.Shadow
module Oracle = Sanitizer.Oracle
module E = Core.Experiments
module Dnsproxy = Connman.Dnsproxy
module Autogen = Exploit.Autogen
module Profile = Defense.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let lookup = Dns.Name.of_string "ipv4.connman.net"

let mk_config ?(version = Connman.Version.v1_34) arch profile seed =
  { Dnsproxy.version; arch; profile; boot_seed = seed; diversity_seed = None }

let benign_wire d =
  let query = Dnsproxy.make_query d lookup in
  Dns.Packet.encode
    (Dns.Packet.response ~query
       [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8_D822 ])

(* --- shadow labels --- *)

let test_label_roundtrip () =
  let l = Shadow.make ~src:3 ~offset:1057 in
  check_bool "non-clean" true (l <> Shadow.clean);
  check_int "source" 3 (Shadow.source_of l);
  check_int "offset" 1057 (Shadow.offset_of l);
  let l0 = Shadow.make ~src:0 ~offset:0 in
  check_bool "source 0 offset 0 is still tainted" true (l0 <> Shadow.clean);
  check_int "source 0" 0 (Shadow.source_of l0);
  check_int "offset 0" 0 (Shadow.offset_of l0);
  let top = Shadow.make ~src:5 ~offset:0xFFFE in
  check_int "max offset survives the source bits" 5 (Shadow.source_of top);
  check_int "max offset" 0xFFFE (Shadow.offset_of top);
  Alcotest.check_raises "offset out of range"
    (Invalid_argument "Shadow.make: offset 65535 out of range") (fun () ->
      ignore (Shadow.make ~src:0 ~offset:0xFFFF))

let test_label_join () =
  let a = Shadow.make ~src:1 ~offset:4 in
  let b = Shadow.make ~src:2 ~offset:9 in
  check_int "join clean x" a (Shadow.join Shadow.clean a);
  check_int "join x clean" a (Shadow.join a Shadow.clean);
  check_int "join keeps the first operand" a (Shadow.join a b);
  check_int "join clean clean" Shadow.clean (Shadow.join Shadow.clean Shadow.clean)

let test_shadow_map () =
  let s = Shadow.create () in
  check_int "unset is clean" 0 (Shadow.get s 0x8048_1234);
  let l = Shadow.make ~src:0 ~offset:7 in
  Shadow.set s 0xBFFF_0000 l;
  Shadow.set s 0xBFFF_1000 l;
  (* a different page *)
  check_int "set/get" l (Shadow.get s 0xBFFF_0000);
  check_int "two tainted bytes" 2 (Shadow.tainted s);
  Shadow.clear_range s 0xBFFF_0000 ~len:16;
  check_int "cleared byte" 0 (Shadow.get s 0xBFFF_0000);
  check_int "one left" 1 (Shadow.tainted s);
  Shadow.clear s;
  check_int "all cleared" 0 (Shadow.tainted s)

(* The page cache must follow page creation, page switches and [clear];
   and a clear + re-taint of the same pages, once per parse in a daemon,
   must reuse their arrays. *)
let test_shadow_page_cache () =
  let s = Shadow.create () in
  let l = Shadow.make ~src:1 ~offset:2 in
  check_int "untouched page reads clean" 0 (Shadow.get s 0x5000);
  Shadow.set s 0x5001 l;
  check_int "set on the cached untouched page" l (Shadow.get s 0x5001);
  check_int "its neighbour stays clean" 0 (Shadow.get s 0x5000);
  Shadow.set s 0x9000 l;
  check_int "back to the first page" l (Shadow.get s 0x5001);
  check_int "second page" l (Shadow.get s 0x9000);
  Shadow.clear s;
  check_int "cleared first page" 0 (Shadow.get s 0x5001);
  check_int "cleared second page" 0 (Shadow.get s 0x9000);
  check_int "nothing tainted" 0 (Shadow.tainted s);
  Shadow.set s 0x5002 l;
  check_int "re-taint after clear" l (Shadow.get s 0x5002);
  check_int "one tainted byte" 1 (Shadow.tainted s);
  let before = Gc.allocated_bytes () in
  for _ = 1 to 10 do
    Shadow.clear s;
    for i = 0 to 63 do
      Shadow.set s (0x5000 + i) l;
      Shadow.set s (0x9000 + i) l
    done
  done;
  check_bool "clear + re-taint reuses the pages" true
    (Gc.allocated_bytes () -. before < float_of_int Memsim.Memory.page_size)

(* Nine pages whose indices agree in their low six bits, so they share
   a set in any small direct-mapped layout and overflow the 4-entry
   cache: every round evicts a page the next one reads again. *)
let colliding_pages = List.init 9 (fun i -> 0x4000_0000 + (i * 64 * Memsim.Memory.page_size))

let test_shadow_cache_collisions () =
  let s = Shadow.create () in
  let lab i off = Shadow.make ~src:i ~offset:off in
  List.iteri (fun i base -> Shadow.set s (base + 7) (lab i 7)) colliding_pages;
  for _ = 1 to 3 do
    List.iter
      (fun (i, base) ->
        check_int "label survives eviction" (lab i 7) (Shadow.get s (base + 7));
        check_int "neighbour clean" 0 (Shadow.get s (base + 8)))
      (List.rev (List.mapi (fun i base -> (i, base)) colliding_pages));
    (* Interleave writes with reads of every other page. *)
    List.iteri
      (fun i base ->
        Shadow.set s (base + 9) (lab i 9);
        check_int "first page still readable" (lab 0 7)
          (Shadow.get s (List.hd colliding_pages + 7)))
      colliding_pages
  done;
  check_int "two bytes per page" (2 * List.length colliding_pages) (Shadow.tainted s)

(* Tainting many pages and clearing leaves nothing behind, including
   bytes overwritten clean in between (they widen no range) and ranges
   that grew downwards. *)
let test_shadow_clear_many () =
  let s = Shadow.create () in
  let l = Shadow.make ~src:2 ~offset:5 in
  let addrs =
    List.concat_map
      (fun p ->
        let base = 0x1000_0000 + (p * Memsim.Memory.page_size) in
        [ base + 3000; base + 12; base + 4095; base ])
      (List.init 40 Fun.id)
  in
  List.iter (fun a -> Shadow.set s a l) addrs;
  Shadow.set s (List.hd addrs) Shadow.clean;
  check_int "tainted before clear" (List.length addrs - 1) (Shadow.tainted s);
  Shadow.clear s;
  check_int "nothing tainted" 0 (Shadow.tainted s);
  List.iter (fun a -> check_int "formerly tainted byte" 0 (Shadow.get s a)) addrs;
  Shadow.set s 0x1000_0010 l;
  check_int "one byte after re-taint" 1 (Shadow.tainted s);
  Shadow.clear s;
  check_int "cleared again" 0 (Shadow.get s 0x1000_0010)

(* The daemon's per-datagram cycle: after the first round has created
   the pages, clear + re-taint allocates nothing. *)
let test_shadow_clear_no_alloc () =
  let s = Shadow.create () in
  let round () =
    Shadow.clear s;
    for i = 0 to 255 do
      let l = Shadow.make ~src:1 ~offset:i in
      Shadow.set s (0x0805_5000 + i) l;
      Shadow.set s (0xBFFF_D000 + (3 * i)) l;
      Shadow.set s (0xBFFF_CF00 + i) l
    done
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "clear + re-taint allocated %.0f words" words) true
    (words < 16.)

(* Snapshots taken after partial clears restore exactly, and stay valid
   across later restores. *)
let test_shadow_snapshot_partial () =
  let s = Shadow.create () in
  let l i = Shadow.make ~src:3 ~offset:i in
  for i = 0 to 99 do
    Shadow.set s (0x2000 + (i * 41)) (l i)
  done;
  Shadow.clear_range s 0x2000 ~len:800;
  Shadow.set s 0x2FFF Shadow.clean;
  let expect = List.init 100 (fun i -> (0x2000 + (i * 41), Shadow.get s (0x2000 + (i * 41)))) in
  let count = Shadow.tainted s in
  let snap = Shadow.snapshot s in
  let check what =
    check_int (what ^ ": tainted") count (Shadow.tainted s);
    List.iter (fun (a, v) -> check_int (what ^ ": label") v (Shadow.get s a)) expect
  in
  Shadow.clear s;
  Shadow.set s 0x7000 (l 1);
  Shadow.restore s snap;
  check "after clear";
  check_int "post-snapshot page dropped" 0 (Shadow.get s 0x7000);
  Shadow.clear_range s 0x2800 ~len:100;
  Shadow.set s 0x2001 (l 2);
  Shadow.restore s snap;
  check "after partial clear";
  Shadow.clear s;
  Shadow.restore s snap;
  Shadow.set s 0x2002 (l 9);
  Shadow.clear s;
  Shadow.restore s snap;
  check "restored twice"

(* Random set/clear_range/clear sequences over colliding pages against a
   plain map, [get32] included (it straddles pages near their ends). *)
let prop_shadow_model =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          ( 6,
            map3
              (fun p off l -> `Set (List.nth colliding_pages p + off, l))
              (int_bound 8) (int_bound 4095) (int_bound 3) );
          ( 2,
            map3
              (fun p off len -> `Clear_range (List.nth colliding_pages p + off, len))
              (int_bound 8) (int_bound 4095) (int_bound 64) );
          (1, return `Clear);
        ])
  in
  Test.make ~name:"shadow = reference map" ~count:300
    (make Gen.(list_size (int_range 1 200) op))
    (fun ops ->
      let s = Shadow.create () and m = Hashtbl.create 64 in
      let set a l =
        Shadow.set s a l;
        if l = 0 then Hashtbl.remove m a else Hashtbl.replace m a l
      in
      List.iter
        (function
          | `Set (a, l) -> set a (if l = 0 then 0 else Shadow.make ~src:l ~offset:(a land 0xFFF))
          | `Clear_range (a, len) ->
              Shadow.clear_range s a ~len;
              for i = 0 to len - 1 do Hashtbl.remove m (a + i) done
          | `Clear ->
              Shadow.clear s;
              Hashtbl.reset m)
        ops;
      let get a = Option.value (Hashtbl.find_opt m a) ~default:0 in
      Shadow.tainted s = Hashtbl.length m
      && Hashtbl.fold (fun a l ok -> ok && Shadow.get s a = l) m true
      && List.for_all
           (function
             | `Set (a, _) | `Clear_range (a, _) ->
                 Shadow.get s a = get a
                 && Shadow.get32 s a
                    = Shadow.join (get a)
                        (Shadow.join (get (a + 1)) (Shadow.join (get (a + 2)) (get (a + 3))))
             | `Clear -> true)
           ops)

(* --- oracle detection rules (synthetic stores) --- *)

let tainted_label o = ignore o; Shadow.make ~src:0 ~offset:42

let test_redzone_rule () =
  let o = Oracle.create () in
  let src = Oracle.new_source o ~origin:"test" ~length:64 in
  check_int "first source id" 0 src;
  Oracle.add_redzone o ~base:0x1000 ~len:8;
  (* Clean stores into the redzone never report (prologue spills). *)
  Oracle.store o ~pc:0x10 ~step:1 ~addr:0x1000 ~len:4 ~value:0 ~label:Shadow.clean;
  check_int "clean store is free" 0 (Oracle.report_count o);
  Oracle.store o ~pc:0x14 ~step:2 ~addr:0x1004 ~len:1 ~value:0x41
    ~label:(tainted_label o);
  check_int "tainted store fires" 1 (Oracle.report_count o);
  check_int "kind count" 1 (Oracle.count o Oracle.Redzone_write);
  (* The same zone reports once per parse. *)
  Oracle.store o ~pc:0x18 ~step:3 ~addr:0x1005 ~len:1 ~value:0x42
    ~label:(tainted_label o);
  check_int "deduped within the parse" 1 (Oracle.report_count o);
  Oracle.begin_parse o;
  check_int "reports survive begin_parse" 1 (Oracle.report_count o)

(* One source per datagram must not accumulate in a long-lived daemon's
   oracle: [begin_parse] forgets the previous datagram's source, while
   ids keep counting and reports keep their origin. *)
let test_sources_bounded () =
  let o = Oracle.create () in
  let parse i =
    Oracle.begin_parse o;
    let src =
      Oracle.new_source o ~origin:(Printf.sprintf "udp:%04d" i) ~length:64
    in
    Oracle.taint o ~src 0x1000 ~len:64;
    src
  in
  let src0 = parse 0 in
  Oracle.check_pc o ~pc:0x20 ~step:1 ~target:0xdead ~slot:0x1000
    ~label:(Shadow.make ~src:src0 ~offset:3) ~detail:"hijack";
  for i = 1 to 10 do ignore (parse i) done;
  let words = Obj.reachable_words (Obj.repr o) in
  for i = 11 to 499 do ignore (parse i) done;
  check_int "oracle does not grow with datagrams" words
    (Obj.reachable_words (Obj.repr o));
  check_int "ids keep counting" 500 (parse 500);
  check_string "current source's origin" "udp:0500" (Oracle.origin_of o 500);
  check_string "earlier sources forgotten" "?" (Oracle.origin_of o 0);
  check_string "report kept its origin" "udp:0000"
    (Option.get (Oracle.first_report o)).Oracle.origin

let test_ret_slot_rule () =
  let o = Oracle.create () in
  ignore (Oracle.new_source o ~origin:"test" ~length:64);
  Oracle.note_ret_slot o 0x2000;
  check_int "one slot" 1 (Oracle.ret_slot_count o);
  (* A 1-byte tainted store into the middle of the slot still hits it. *)
  Oracle.store o ~pc:0x10 ~step:1 ~addr:0x2002 ~len:1 ~value:0x41
    ~label:(tainted_label o);
  check_int "slot overwrite" 1 (Oracle.count o Oracle.Ret_slot_overwrite);
  Oracle.store o ~pc:0x14 ~step:2 ~addr:0x2000 ~len:4 ~value:0x4141_4141
    ~label:(tainted_label o);
  check_int "once per slot per parse" 1 (Oracle.count o Oracle.Ret_slot_overwrite);
  (* A legitimately consumed slot stops being one. *)
  let o2 = Oracle.create () in
  ignore (Oracle.new_source o2 ~origin:"test" ~length:64);
  Oracle.note_ret_slot o2 0x2000;
  Oracle.clear_ret_slot o2 0x2000;
  Oracle.store o2 ~pc:0x10 ~step:1 ~addr:0x2000 ~len:4 ~value:0
    ~label:(tainted_label o2);
  check_int "cleared slot is silent" 0 (Oracle.count o2 Oracle.Ret_slot_overwrite)

(* The detection rules of [Oracle.store] as they were first written: a
   [Hashtbl] of live slots probed byte by byte in store order (the slot
   holding byte [b] starts in [b-3, b]), then the first overlapping
   redzone, newest first.  Reports are (kind, addr). *)
module Ref_rules = struct
  type t = {
    slots : (int, bool ref) Hashtbl.t;
    mutable zones : (int * int * bool ref) list;
    mutable out : (string * int) list;
  }

  let create () = { slots = Hashtbl.create 16; zones = []; out = [] }

  let store t ~addr ~len =
    let found = ref None in
    (try
       for b = addr to addr + len - 1 do
         for s = b - 3 to b do
           match Hashtbl.find_opt t.slots s with
           | Some fired ->
               found := Some (s, fired);
               raise Exit
           | None -> ()
         done
       done
     with Exit -> ());
    match !found with
    | Some (s, fired) ->
        if not !fired then begin
          fired := true;
          t.out <- ("ret-slot-overwrite", s) :: t.out
        end
    | None -> (
        match
          List.find_opt (fun (base, zlen, _) -> addr < base + zlen && addr + len > base) t.zones
        with
        | Some (_, _, fired) when not !fired ->
            fired := true;
            t.out <- ("redzone-write", addr) :: t.out
        | _ -> ())
end

(* Random slot/redzone/store/parse sequences over a 64-byte window: the
   oracle reports exactly what the reference rules report — the same
   slot for every store, each slot and each redzone at most once per
   parse. *)
let prop_store_rules =
  let open QCheck in
  let at = Gen.map (fun o -> 0x1000 + o) (Gen.int_bound 63) in
  let op =
    Gen.(
      frequency
        [
          (3, map (fun a -> `Note a) at);
          (1, map (fun a -> `Clear a) at);
          (1, map2 (fun a len -> `Zone (a, len)) at (int_bound 12));
          (6, map2 (fun a len -> `Store (a, len)) at (int_bound 8));
          (1, return `Parse);
        ])
  in
  let print =
    Print.list (function
      | `Note a -> Printf.sprintf "note %x" a
      | `Clear a -> Printf.sprintf "clear %x" a
      | `Zone (a, len) -> Printf.sprintf "zone %x+%d" a len
      | `Store (a, len) -> Printf.sprintf "store %x+%d" a len
      | `Parse -> "parse")
  in
  Test.make ~name:"store = reference rules" ~count:500
    (make ~print Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let o = Oracle.create () and r = ref (Ref_rules.create ()) in
      let label = Shadow.make ~src:0 ~offset:1 in
      (* Per parse: live slots that reported, redzones added and fired. *)
      let fired_slots = Hashtbl.create 16 and zones = ref 0 and zone_reports = ref 0 in
      let once = ref true in
      List.iter
        (function
          | `Note a ->
              Oracle.note_ret_slot o a;
              if not (Hashtbl.mem !r.Ref_rules.slots a) then
                Hashtbl.replace !r.Ref_rules.slots a (ref false)
          | `Clear a ->
              (* A consumed slot noted again is a new slot. *)
              Oracle.clear_ret_slot o a;
              Hashtbl.remove !r.Ref_rules.slots a;
              Hashtbl.remove fired_slots a
          | `Zone (base, len) ->
              Oracle.add_redzone o ~base ~len;
              if len > 0 then begin
                incr zones;
                !r.Ref_rules.zones <- (base, len, ref false) :: !r.Ref_rules.zones
              end
          | `Store (addr, len) -> (
              let before = Oracle.report_count o in
              Oracle.store o ~pc:0 ~step:0 ~addr ~len ~value:0 ~label;
              Ref_rules.store !r ~addr ~len;
              if Oracle.report_count o > before then
                match Oracle.reports o |> List.rev |> List.hd with
                | { Oracle.kind = Oracle.Ret_slot_overwrite; addr = slot; _ } ->
                    if Hashtbl.mem fired_slots slot then once := false;
                    Hashtbl.replace fired_slots slot ()
                | _ ->
                    incr zone_reports;
                    if !zone_reports > !zones then once := false)
          | `Parse ->
              Oracle.begin_parse o;
              Hashtbl.reset fired_slots;
              zones := 0;
              zone_reports := 0;
              r := { (Ref_rules.create ()) with Ref_rules.out = !r.Ref_rules.out })
        ops;
      !once
      && List.map
           (fun (rep : Oracle.report) -> (Oracle.kind_name rep.Oracle.kind, rep.Oracle.addr))
           (Oracle.reports o)
         = List.rev !r.Ref_rules.out
      && Oracle.ret_slot_count o = Hashtbl.length !r.Ref_rules.slots)

let test_pc_and_syscall_rules () =
  let o = Oracle.create () in
  ignore (Oracle.new_source o ~origin:"udp" ~length:64);
  Oracle.check_pc o ~pc:0x20 ~step:5 ~target:0xdead ~slot:0x3000
    ~label:Shadow.clean ~detail:"clean ret";
  check_int "clean pc is silent" 0 (Oracle.report_count o);
  Oracle.check_pc o ~pc:0x20 ~step:6 ~target:0xdead ~slot:0x3000
    ~label:(Shadow.make ~src:0 ~offset:9) ~detail:"tainted ret";
  Oracle.check_syscall o ~pc:0x24 ~step:7 ~number:11 ~addr:0x4000
    ~label:(Shadow.make ~src:0 ~offset:12) ~detail:"execve";
  check_int "both fired" 2 (Oracle.report_count o);
  let r = Option.get (Oracle.first_report o) in
  check_string "kind name" "tainted-pc" (Oracle.kind_name r.Oracle.kind);
  check_int "wire offset" 9 (Oracle.wire_offset r);
  check_int "source id" 0 (Oracle.source_id r);
  check_string "origin" "udp" r.Oracle.origin;
  (* Severity is the detection-point ordering. *)
  check_bool "severity ascending" true
    (Oracle.severity Oracle.Redzone_write
       < Oracle.severity Oracle.Ret_slot_overwrite
    && Oracle.severity Oracle.Ret_slot_overwrite
       < Oracle.severity Oracle.Tainted_pc
    && Oracle.severity Oracle.Tainted_pc
       < Oracle.severity Oracle.Tainted_syscall)

(* --- strict observer: sanitized runs bit-identical to plain runs --- *)

let fire_cell ~sanitized (id, _section, arch, profile, strategy, _desc) =
  let d = Dnsproxy.create (mk_config arch profile 42) in
  if sanitized then Dnsproxy.set_sanitizer d (Some (Oracle.create ()));
  match E.fire ~strategy d with
  | Error e -> Alcotest.fail (id ^ ": " ^ e)
  | Ok (_, disp) -> (id, E.disposition_word disp, Dnsproxy.last_steps d)

let test_differential_matrix () =
  let plain = List.map (fire_cell ~sanitized:false) E.matrix_cells in
  let sanitized = List.map (fire_cell ~sanitized:true) E.matrix_cells in
  List.iter2
    (fun (id, w0, s0) (_, w1, s1) ->
      check_string (id ^ " disposition") w0 w1;
      check_int (id ^ " retired instructions") s0 s1)
    plain sanitized

let dos_and_benign ~sanitized arch =
  let d = Dnsproxy.create (mk_config arch Profile.wx 42) in
  if sanitized then Dnsproxy.set_sanitizer d (Some (Oracle.create ()));
  let q = Dnsproxy.make_query d lookup in
  let dos_wire =
    Dns.Craft.hostile_response ~query:q
      ~raw_name:(Dns.Craft.dos_name ~size:8192) ()
  in
  let dos = E.disposition_word (Dnsproxy.handle_response d dos_wire) in
  let d2 = Dnsproxy.create (mk_config arch Profile.wx 42) in
  if sanitized then Dnsproxy.set_sanitizer d2 (Some (Oracle.create ()));
  let benign = E.disposition_word (Dnsproxy.handle_response d2 (benign_wire d2)) in
  (dos, Dnsproxy.last_steps d, benign, Dnsproxy.last_steps d2)

let test_differential_dos_benign () =
  List.iter
    (fun arch ->
      let d0, s0, b0, t0 = dos_and_benign ~sanitized:false arch in
      let d1, s1, b1, t1 = dos_and_benign ~sanitized:true arch in
      let a = Loader.Arch.name arch in
      check_string (a ^ " dos disposition") d0 d1;
      check_int (a ^ " dos steps") s0 s1;
      check_string (a ^ " benign disposition") b0 b1;
      check_int (a ^ " benign steps") t0 t1)
    Loader.Arch.all

(* Direct [Process.call]: outcome, step count, return value, and the
   whole register file must match with the oracle attached. *)
let test_differential_registers () =
  List.iter
    (fun arch ->
      let run ~sanitizer () =
        let d = Dnsproxy.create (mk_config arch Profile.wx 7) in
        let proc = Dnsproxy.process d in
        let wire = benign_wire d in
        let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
        Memsim.Memory.write_bytes proc.Loader.Process.mem buf wire;
        Loader.Process.call_named proc ?sanitizer ~fuel:400_000
          ~entry:"parse_response"
          ~args:[ buf; String.length wire ]
      in
      let p = run ~sanitizer:None () in
      let s = run ~sanitizer:(Some (Oracle.create ())) () in
      let a = Loader.Arch.name arch in
      check_bool (a ^ " outcome") true
        (p.Loader.Process.outcome = s.Loader.Process.outcome);
      check_int (a ^ " steps") p.Loader.Process.steps s.Loader.Process.steps;
      check_int (a ^ " ret") p.Loader.Process.ret s.Loader.Process.ret;
      Alcotest.(check (array int))
        (a ^ " register file") p.Loader.Process.regs s.Loader.Process.regs)
    Loader.Arch.all

(* --- the detection matrix --- *)

let test_detection_matrix () =
  let rows = E.detection_matrix ~seed:1 () in
  check_int "nine cells" 9 (List.length rows);
  List.iter
    (fun (r : E.detection_row) ->
      check_bool (r.E.det_cell ^ " ok") true r.E.det_ok;
      if String.length r.E.det_cell >= 6
         && String.sub r.E.det_cell 0 6 = "benign"
      then check_int (r.E.det_cell ^ " zero reports") 0 r.E.det_reports
      else begin
        check_bool (r.E.det_cell ^ " detected") true (r.E.det_reports > 0);
        let first = Option.get r.E.det_first in
        check_bool (r.E.det_cell ^ " caught before the hijack completes") true
          (Oracle.severity first.Oracle.kind
          <= Oracle.severity Oracle.Tainted_pc)
      end)
    rows

let test_detection_determinism () =
  let j1 = E.detection_json ~seed:1 (E.detection_matrix ~seed:1 ()) in
  let j2 = E.detection_json ~seed:1 (E.detection_matrix ~seed:1 ()) in
  check_string "byte-identical json" j1 j2;
  match Telemetry.Json.validate j1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid detection json: " ^ e)

(* --- zero false positives over consecutive benign datagrams --- *)

let test_benign_stream_zero_fp () =
  List.iter
    (fun arch ->
      let d = Dnsproxy.create (mk_config arch Profile.wx 11) in
      let oracle = Oracle.create () in
      Dnsproxy.set_sanitizer d (Some oracle);
      for _ = 1 to 5 do
        match Dnsproxy.handle_response d (benign_wire d) with
        | Dnsproxy.Cached _ -> ()
        | other ->
            Alcotest.failf "%s: benign parse was %s" (Loader.Arch.name arch)
              (E.disposition_word other)
      done;
      check_int (Loader.Arch.name arch ^ " zero reports") 0
        (Oracle.report_count oracle))
    Loader.Arch.all

(* --- provenance round-trip: report bytes = wire bytes --- *)

(* A report's label was captured at detection time (the slot's shadow may
   be legitimately overwritten later — x86 stack shellcode pushes over
   its own return slot).  The label points at the wire byte that became
   the low byte of the reported value: follow it back into the exact
   datagram the daemon parsed. *)
let check_report_bytes arch wire (r : Oracle.report) =
  let a = Loader.Arch.name arch in
  let what = Oracle.kind_name r.Oracle.kind in
  check_string (Printf.sprintf "%s %s origin" a what) "udp" r.Oracle.origin;
  check_int (Printf.sprintf "%s %s source" a what) 0 (Oracle.source_id r);
  let off = Oracle.wire_offset r in
  check_bool
    (Printf.sprintf "%s %s offset within the datagram" a what)
    true
    (off >= 0 && off < String.length wire);
  check_int
    (Printf.sprintf "%s %s wire[%d] = low byte of 0x%x" a what off
       r.Oracle.target)
    (r.Oracle.target land 0xFF)
    (Char.code wire.[off])

(* Fire one exploit cell with the oracle attached, keeping the wire bytes
   the daemon saw, then check that both the return-slot overwrite and the
   control-flow hijack chain back to bytes of that datagram. *)
let provenance_roundtrip arch profile strategy =
  let config = mk_config arch profile 1 in
  let d = Dnsproxy.create config in
  let oracle = Oracle.create () in
  Dnsproxy.set_sanitizer d (Some oracle);
  let analysis =
    Dnsproxy.process
      (Dnsproxy.create { config with Dnsproxy.boot_seed = config.Dnsproxy.boot_seed + 5000 })
  in
  match Autogen.generate ~analysis:(Exploit.Target.connman analysis) ~strategy () with
  | Error e -> Alcotest.fail e
  | Ok (_, raw_name) -> (
      let query = Dnsproxy.make_query d lookup in
      let wire = Autogen.response_for ~query ~raw_name in
      (match Dnsproxy.handle_response d wire with
      | Dnsproxy.Compromised _ -> ()
      | other ->
          Alcotest.failf "%s: exploit was %s" (Loader.Arch.name arch)
            (E.disposition_word other));
      let find kind =
        match
          List.find_opt
            (fun (r : Oracle.report) -> r.Oracle.kind = kind)
            (Oracle.reports oracle)
        with
        | Some r -> r
        | None ->
            Alcotest.failf "%s: no %s report" (Loader.Arch.name arch)
              (Oracle.kind_name kind)
      in
      check_report_bytes arch wire (find Oracle.Ret_slot_overwrite);
      check_report_bytes arch wire (find Oracle.Tainted_pc))

let test_provenance_x86 () =
  (* E1: the 1-byte-NOP-sled code-injection path. *)
  provenance_roundtrip Loader.Arch.X86 Profile.none Autogen.Code_injection

let test_provenance_arm () =
  (* E4: the pop {…, pc} gadget-chain path under W^X. *)
  provenance_roundtrip Loader.Arch.Arm Profile.wx Autogen.Rop_wx

(* --- pinned sanitizer state --- *)

(* Everything the oracle knows after a parse, as text: every report's
   fields, the tainted-byte count, the 16 register labels, and each
   non-clean label over the receive buffer and the stack (argv/env area
   included). *)
let oracle_state b d oracle =
  Printf.bprintf b "reports %d\n" (Oracle.report_count oracle);
  List.iter
    (fun (r : Oracle.report) ->
      Printf.bprintf b "%s step=%d pc=%x addr=%x target=%x label=%x origin=%s %s\n"
        (Oracle.kind_name r.Oracle.kind) r.Oracle.step r.Oracle.pc r.Oracle.addr
        r.Oracle.target r.Oracle.label r.Oracle.origin r.Oracle.detail)
    (Oracle.reports oracle);
  Printf.bprintf b "tainted %d\nregs" (Oracle.tainted_bytes oracle);
  for i = 0 to 15 do
    Printf.bprintf b " %x" (Oracle.reg_label oracle i)
  done;
  Buffer.add_char b '\n';
  let layout = (Dnsproxy.process d).Loader.Process.layout in
  let region lo len =
    for a = lo to lo + len - 1 do
      let l = Oracle.mem_label oracle a in
      if l <> 0 then Printf.bprintf b "%x=%x\n" a l
    done
  in
  region layout.Loader.Layout.heap_base layout.Loader.Layout.heap_size;
  region layout.Loader.Layout.stack_base
    (layout.Loader.Layout.stack_size + layout.Loader.Layout.env_size)

let sanitized_daemon arch profile =
  let d = Dnsproxy.create (mk_config arch profile 1) in
  let oracle = Oracle.create () in
  Dnsproxy.set_sanitizer d (Some oracle);
  (d, oracle)

(* The nine fixed workloads of the detection matrix: DoS, E1-E6 and a
   benign answer per ISA, each on a fresh sanitized daemon. *)
let fixed_state (name, arch, profile, fire) =
  let d, oracle = sanitized_daemon arch profile in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%s\n" (E.disposition_word (fire d));
  oracle_state b d oracle;
  (name, Buffer.contents b)

let fixed_workloads =
  let dos d =
    Dnsproxy.handle_response d
      (Dns.Craft.hostile_response ~query:(Dnsproxy.make_query d lookup)
         ~raw_name:(Dns.Craft.dos_name ~size:8192) ())
  in
  let exploit strategy d =
    match E.fire ~strategy d with Ok (_, disp) -> disp | Error e -> Alcotest.fail e
  in
  let benign d = Dnsproxy.handle_response d (benign_wire d) in
  (("DoS", Loader.Arch.X86, Profile.wx, dos)
  :: List.map
       (fun (id, _, arch, profile, strategy, _) -> (id, arch, profile, exploit strategy))
       E.matrix_cells)
  @ [
      ("benign-x86", Loader.Arch.X86, Profile.wx, benign);
      ("benign-arm", Loader.Arch.Arm, Profile.wx, benign);
    ]

(* A seeded benign stream into one long-lived sanitized daemon per ISA:
   qnames of 2, 3 or 5-7 labels, 1-4 answers, compression on or off. *)
let stream_state arch =
  let d, oracle = sanitized_daemon arch Profile.wx in
  let rng =
    Memsim.Rng.create (match arch with Loader.Arch.X86 -> 0x5A17 | Loader.Arch.Arm -> 0x5A18)
  in
  let label lo hi =
    String.init
      (lo + Memsim.Rng.int rng (hi - lo + 1))
      (fun _ -> "abcdefghijklmnopqrstuvwxyz0123456789".[Memsim.Rng.int rng 36])
  in
  let b = Buffer.create 65536 in
  for i = 0 to 59 do
    let qname =
      match i mod 3 with
      | 0 -> [ label 1 8; label 2 3 ]
      | 1 -> List.init 3 (fun _ -> label 3 10)
      | _ -> List.init (5 + Memsim.Rng.int rng 3) (fun _ -> label 4 12)
    in
    let answers = 1 + Memsim.Rng.int rng 4 in
    let compress = Memsim.Rng.bool rng in
    let query = Dnsproxy.make_query d qname in
    let wire =
      Dns.Packet.encode ~compress
        (Dns.Packet.response ~query
           (List.init answers (fun k ->
                Dns.Packet.a_record qname ~ttl:(60 * (k + 1)) ~ipv4:(0x0A000001 + k))))
    in
    let disposition = Dnsproxy.handle_response d wire in
    if disposition <> Dnsproxy.Cached answers then
      Alcotest.failf "stream item %d was %s" i (E.disposition_word disposition);
    Printf.bprintf b "#%d %s\n" i (E.disposition_word disposition);
    oracle_state b d oracle
  done;
  ("stream-" ^ Loader.Arch.name arch, Buffer.contents b)

(* Pinned before the shadow map and the oracle's slot table were last
   reworked; a change to either must leave every digest as it is. *)
let golden_state =
  [
    ("DoS", "eec025db9fe09514f67ed4a9f9b1ab0f");
    ("E1", "4f5725135412094396b8586c71e1ca08");
    ("E2", "85aa15ead8836f54932f43f8e486952f");
    ("E3", "5c9ebbd4f50cb08f04fbd82e8ff5f647");
    ("E4", "98656e64f778195a29d29dadb8a4aad8");
    ("E5", "7ab27dfbcfaa6f82a258cc7432bdda7f");
    ("E6", "b9af6aa7e6060da10b57175c9bfeae00");
    ("benign-x86", "3b37f891df65d9fdbec93fcdb053beb5");
    ("benign-arm", "e61ba534f6b919c96012e328c8888a65");
    ("stream-x86", "ce1ea19b2ff70de9a457522c061ea197");
    ("stream-armv7", "6f3d102abffd8c2f8b8ada34583cd167");
  ]

let test_state_golden () =
  let states =
    List.map fixed_state fixed_workloads @ List.map stream_state Loader.Arch.all
  in
  check_int "workloads" (List.length golden_state) (List.length states);
  List.iter2
    (fun (name, digest) (name', text) ->
      check_string "workload" name name';
      check_string (name ^ " state digest") digest (Digest.to_hex (Digest.string text)))
    golden_state states

let () =
  Alcotest.run "sanitizer"
    [
      ( "shadow",
        [
          Alcotest.test_case "label roundtrip" `Quick test_label_roundtrip;
          Alcotest.test_case "join keeps first provenance" `Quick
            test_label_join;
          Alcotest.test_case "sparse map set/get/clear" `Quick test_shadow_map;
          Alcotest.test_case "page cache + in-place clear" `Quick
            test_shadow_page_cache;
          Alcotest.test_case "colliding pages" `Quick test_shadow_cache_collisions;
          Alcotest.test_case "clear after many pages" `Quick test_shadow_clear_many;
          Alcotest.test_case "clear + re-taint allocates nothing" `Quick
            test_shadow_clear_no_alloc;
          Alcotest.test_case "snapshot/restore after partial clears" `Quick
            test_shadow_snapshot_partial;
          QCheck_alcotest.to_alcotest prop_shadow_model;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "redzone rule + dedup" `Quick test_redzone_rule;
          Alcotest.test_case "sources bounded across parses" `Quick
            test_sources_bounded;
          Alcotest.test_case "return-slot rule + lifecycle" `Quick
            test_ret_slot_rule;
          Alcotest.test_case "tainted pc / syscall rules" `Quick
            test_pc_and_syscall_rules;
          QCheck_alcotest.to_alcotest prop_store_rules;
        ] );
      ( "observer",
        [
          Alcotest.test_case "matrix outcomes unchanged when sanitized" `Slow
            test_differential_matrix;
          Alcotest.test_case "dos + benign unchanged when sanitized" `Quick
            test_differential_dos_benign;
          Alcotest.test_case "register-file identical on a direct call" `Quick
            test_differential_registers;
        ] );
      ( "detection",
        [
          Alcotest.test_case "all cells detected, benign clean" `Slow
            test_detection_matrix;
          Alcotest.test_case "byte-identical json across runs" `Slow
            test_detection_determinism;
          Alcotest.test_case "benign stream has zero reports" `Quick
            test_benign_stream_zero_fp;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "x86 nop-sled wire round-trip" `Quick
            test_provenance_x86;
          Alcotest.test_case "arm pop-pc wire round-trip" `Quick
            test_provenance_arm;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "sanitizer state digests" `Slow test_state_golden;
        ] );
    ]
