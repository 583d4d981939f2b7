(* Unit and property tests for the paged memory simulator. *)

module Mem = Memsim.Memory
module Word = Memsim.Word

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh () = Mem.create ()

let expect_fault kind f =
  match f () with
  | _ -> Alcotest.fail "expected a memory fault"
  | exception Mem.Fault fault ->
      Alcotest.(check bool)
        "fault kind"
        true
        (fault.Mem.kind = kind)

(* --- Word arithmetic --- *)

let test_word_wrap () =
  check_int "add wraps" 0 (Word.add 0xFFFF_FFFF 1);
  check_int "sub wraps" 0xFFFF_FFFF (Word.sub 0 1);
  check_int "neg" 0xFFFF_FFFF (Word.neg 1);
  check_int "signed round trip" (-1) (Word.to_signed 0xFFFF_FFFF);
  check_int "of_signed" 0xFFFF_FFFE (Word.of_signed (-2));
  check_int "sign8" 0xFFFF_FF80 (Word.sign8 0x80);
  check_int "sign8 positive" 0x7F (Word.sign8 0x7F);
  check_int "sign16" 0xFFFF_8000 (Word.sign16 0x8000);
  check_int "ror" 0x8000_0000 (Word.ror 1 1);
  check_int "ror 8" 0x1200_0000 (Word.ror 0x12 8);
  check_bool "bit 31" true (Word.bit 0x8000_0000 31)

let prop_word_signed_roundtrip =
  QCheck.Test.make ~name:"word signed round-trip" ~count:500
    QCheck.(int_range (-0x4000_0000) 0x3FFF_FFFF)
    (fun x -> Word.to_signed (Word.of_signed x) = x)

(* --- Mapping --- *)

let test_map_read_write () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"data";
  Mem.write_u32 m 0x1000 0xDEADBEEF;
  check_int "u32 round trip" 0xDEADBEEF (Mem.read_u32 m 0x1000);
  Mem.write_u16 m 0x1100 0xBEEF;
  check_int "u16 round trip" 0xBEEF (Mem.read_u16 m 0x1100);
  check_int "u8 of u16" 0xEF (Mem.read_u8 m 0x1100);
  check_int "zero-filled" 0 (Mem.read_u32 m 0x1ffc)

let test_little_endian () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
  Mem.write_u32 m 0x1000 0x11223344;
  check_int "byte 0 is LSB" 0x44 (Mem.read_u8 m 0x1000);
  check_int "byte 3 is MSB" 0x11 (Mem.read_u8 m 0x1003)

let test_cross_page () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
  (* A u32 straddling the page boundary at 0x2000. *)
  Mem.write_u32 m 0x1ffe 0xCAFEBABE;
  check_int "cross-page u32" 0xCAFEBABE (Mem.read_u32 m 0x1ffe)

let test_unmapped_fault () =
  let m = fresh () in
  expect_fault Mem.Unmapped (fun () -> Mem.read_u8 m 0x5000)

let test_overlap_rejected () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a";
  Alcotest.check_raises "overlap"
    (Invalid_argument
       "Memory.map: b overlaps existing mapping at page 0x00001000")
    (fun () -> Mem.map m ~base:0x1800 ~size:0x100 ~perm:Mem.rw ~name:"b")

let test_unmap () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a";
  Mem.unmap m ~base:0x1000;
  check_bool "gone" false (Mem.is_mapped m 0x1000);
  (* Remapping the freed range must succeed. *)
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a2";
  check_bool "back" true (Mem.is_mapped m 0x1000)

(* --- Permissions: the W⊕X substrate --- *)

let test_write_protect () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rx ~name:"text";
  expect_fault Mem.Perm_write (fun () -> Mem.write_u8 m 0x1000 1)

let test_nx_fetch () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"stack";
  check_int "plain read ok" 0 (Mem.read_u8 m 0x1000);
  expect_fault Mem.Perm_exec (fun () -> Mem.fetch_u8 m 0x1000)

let test_executable_stack_fetch () =
  (* With W⊕X disabled the stack is rwx and fetch succeeds — the
     no-protections configuration of the paper's §III-A. *)
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rwx ~name:"stack";
  Mem.write_u8 m 0x1000 0x90;
  check_int "fetch from rwx" 0x90 (Mem.fetch_u8 m 0x1000)

let test_mprotect () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rwx ~name:"stack";
  Mem.set_perm m ~base:0x1000 Mem.rw;
  expect_fault Mem.Perm_exec (fun () -> Mem.fetch_u8 m 0x1000);
  check_bool "region perm updated" false
    (Mem.find_region m "stack").Mem.perm.Mem.execute

let test_region_queries () =
  let m = fresh () in
  Mem.map m ~base:0x8048000 ~size:0x1000 ~perm:Mem.rx ~name:"text";
  Mem.map m ~base:0x804A000 ~size:0x1000 ~perm:Mem.rw ~name:"bss";
  (match Mem.region_at m 0x8048123 with
  | Some r0 -> check_string "region name" "text" r0.Mem.name
  | None -> Alcotest.fail "expected region");
  check_bool "miss" true (Mem.region_at m 0x9000000 = None);
  check_int "regions sorted" 2 (List.length (Mem.regions m));
  check_int "find by name" 0x804A000 (Mem.find_region m "bss").Mem.base

let test_bytes_and_cstring () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "/bin/sh\x00tail";
  check_string "cstring stops at NUL" "/bin/sh" (Mem.read_cstring m 0x1000);
  check_string "read_bytes exact" "/bin/sh\x00" (Mem.read_bytes m 0x1000 8)

let test_peek_poke_bypass_perms () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.r ~name:"ro";
  Mem.poke_bytes m 0x1000 "hi";
  check_string "poke wrote" "hi" (Mem.peek_bytes m 0x1000 2)

let test_hexdump () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "ABC";
  let dump = Mem.hexdump m ~base:0x1000 ~len:16 in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "hex bytes present" true (contains dump "41 42 43");
  check_bool "ascii present" true (contains dump "ABC")

let prop_byte_roundtrip =
  QCheck.Test.make ~name:"byte round-trip at random offsets" ~count:500
    QCheck.(pair (int_range 0 0xFFF) (int_range 0 255))
    (fun (off, v) ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
      Mem.write_u8 m (0x4000 + off) v;
      Mem.read_u8 m (0x4000 + off) = v)

let prop_u32_roundtrip =
  QCheck.Test.make ~name:"u32 round-trip incl. page straddles" ~count:500
    QCheck.(pair (int_range 0 0x1FFC) (int_range 0 0x3FFF_FFFF))
    (fun (off, v) ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
      Mem.write_u32 m (0x4000 + off) v;
      Mem.read_u32 m (0x4000 + off) = v)

let prop_write_bytes_read_bytes =
  QCheck.Test.make ~name:"write_bytes/read_bytes identity" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 600))
    (fun s ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
      Mem.write_bytes m 0x4100 s;
      Mem.read_bytes m 0x4100 (String.length s) = s)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng determinism per seed" ~count:100 QCheck.small_nat
    (fun seed ->
      let a = Memsim.Rng.create seed and b = Memsim.Rng.create seed in
      List.for_all
        (fun _ -> Memsim.Rng.next64 a = Memsim.Rng.next64 b)
        [ 1; 2; 3; 4; 5 ])

let prop_rng_bound =
  QCheck.Test.make ~name:"rng int within bound" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Memsim.Rng.create seed in
      let v = Memsim.Rng.int g bound in
      v >= 0 && v < bound)

let test_rng_shuffle_permutes () =
  let g = Memsim.Rng.create 42 in
  let a = Array.init 100 Fun.id in
  Memsim.Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

(* --- Atomicity of multi-byte writes (torn-write regressions) --- *)

let expect_fault_at kind addr f =
  match f () with
  | _ -> Alcotest.fail "expected a memory fault"
  | exception Mem.Fault fault ->
      check_bool "fault kind" true (fault.Mem.kind = kind);
      check_int "fault at lowest offending address" addr fault.Mem.addr

(* A u32 straddling into an unmapped page must fault without committing
   its first bytes (the regression: the old byte-at-a-time loop left a
   torn prefix behind). *)
let test_torn_write_u32_unmapped () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"lo";
  Mem.write_u8 m 0x1FFE 0xAB;
  Mem.write_u8 m 0x1FFF 0xCD;
  expect_fault_at Mem.Unmapped 0x2000 (fun () ->
      Mem.write_u32 m 0x1FFE 0x1122_3344);
  check_int "prefix byte 0 untouched" 0xAB (Mem.read_u8 m 0x1FFE);
  check_int "prefix byte 1 untouched" 0xCD (Mem.read_u8 m 0x1FFF)

let test_torn_write_u32_protected () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"lo";
  Mem.map m ~base:0x2000 ~size:0x1000 ~perm:Mem.r ~name:"ro";
  Mem.write_u8 m 0x1FFF 0x5A;
  expect_fault_at Mem.Perm_write 0x2000 (fun () ->
      Mem.write_u32 m 0x1FFF 0xDEAD_BEEF);
  check_int "prefix byte untouched" 0x5A (Mem.read_u8 m 0x1FFF)

let test_torn_write_bytes () =
  let m = fresh () in
  (* Three-page span with the middle page missing: nothing at all may
     land, including the bytes destined for the (valid) first page. *)
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"lo";
  Mem.map m ~base:0x3000 ~size:0x1000 ~perm:Mem.rw ~name:"hi";
  let payload = String.make 0x2100 'X' in
  expect_fault_at Mem.Unmapped 0x2000 (fun () ->
      Mem.write_bytes m 0x1F00 payload);
  check_int "first page untouched" 0 (Mem.read_u8 m 0x1F00);
  check_int "last page untouched" 0 (Mem.read_u8 m 0x3000);
  (* Same span for the loader's permission-blind poke. *)
  expect_fault_at Mem.Unmapped 0x2000 (fun () ->
      Mem.poke_bytes m 0x1F00 payload);
  check_int "poke left no prefix" 0 (Mem.read_u8 m 0x1F00)

(* --- Descriptive errors instead of bare Not_found --- *)

let contains_sub haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let expect_invalid_arg needle f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "message %S mentions %S" msg needle)
        true (contains_sub msg needle)

let test_descriptive_errors () =
  let m = fresh () in
  Mem.map m ~base:0x4000 ~size:0x1000 ~perm:Mem.rw ~name:"heap";
  expect_invalid_arg "unmap" (fun () -> Mem.unmap m ~base:0x9000);
  expect_invalid_arg "0x00009000" (fun () -> Mem.unmap m ~base:0x9000);
  expect_invalid_arg "set_perm" (fun () -> Mem.set_perm m ~base:0x9000 Mem.r);
  expect_invalid_arg "no region named" (fun () ->
      ignore (Mem.find_region m "nope"));
  expect_invalid_arg "nope" (fun () -> ignore (Mem.find_region m "nope"))

(* --- Write generations and generation cells --- *)

let test_page_generations () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"a";
  check_int "unmapped is -1" (-1) (Mem.page_gen m 0x9000);
  let g0 = Mem.page_gen m 0x1000 in
  let g_other = Mem.page_gen m 0x2000 in
  check_bool "live generations are positive" true (g0 > 0);
  Mem.write_u8 m 0x1004 7;
  let g1 = Mem.page_gen m 0x1000 in
  check_bool "store bumps" true (g1 <> g0);
  check_int "other page unaffected" g_other (Mem.page_gen m 0x2000);
  Mem.set_perm m ~base:0x1000 Mem.r;
  check_bool "mprotect bumps" true (Mem.page_gen m 0x1000 <> g1);
  (* Generations are never reused across a page's lifetimes. *)
  let before = Mem.page_gen m 0x1000 in
  Mem.unmap m ~base:0x1000;
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"a2";
  check_bool "remap gets a fresh generation" true
    (Mem.page_gen m 0x1000 <> before)

let test_gen_ref_cells () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a";
  let cell = Mem.gen_ref m 0x1234 in
  check_int "cell tracks page_gen" (Mem.page_gen m 0x1000) !cell;
  Mem.write_u8 m 0x1000 1;
  check_int "cell sees the bump directly" (Mem.page_gen m 0x1000) !cell;
  check_bool "same page, same cell" true (cell == Mem.gen_ref m 0x1FFF);
  let snapshot = !cell in
  Mem.unmap m ~base:0x1000;
  check_bool "unmap retires the cell's value" true (!cell <> snapshot);
  expect_fault Mem.Unmapped (fun () -> Mem.gen_ref m 0x1000)

(* --- Icache: hits, misses, and every invalidation source --- *)

let icache_fixture () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  let c = Memsim.Icache.create ~dummy:0 m in
  let calls = ref 0 in
  let decode _mem addr =
    incr calls;
    (addr * 10, 4)
  in
  (m, c, calls, decode)

let test_icache_hit_and_miss () =
  let m, c, calls, decode = icache_fixture () in
  ignore m;
  let e = Memsim.Icache.lookup c 0x1008 ~decode in
  check_int "decoded value" (0x1008 * 10) e.Memsim.Icache.v;
  check_int "decoded length" 4 e.Memsim.Icache.len;
  check_int "one decode" 1 !calls;
  let e2 = Memsim.Icache.lookup c 0x1008 ~decode in
  check_int "hit returns same value" e.Memsim.Icache.v e2.Memsim.Icache.v;
  check_int "no second decode" 1 !calls;
  check_bool "hit counted" true (Memsim.Icache.hits c = 1);
  check_bool "miss counted" true (Memsim.Icache.misses c = 1);
  (* A different address on the same page is its own slot. *)
  ignore (Memsim.Icache.lookup c 0x100C ~decode);
  check_int "separate slot decodes" 2 !calls

let test_icache_write_invalidates () =
  let m, c, calls, decode = icache_fixture () in
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  Mem.write_u8 m 0x1FFF 0x90;
  (* Any store to the page stales every entry on it. *)
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "re-decoded after store" 2 !calls;
  (* A store to a different page does not. *)
  Mem.write_u8 m 0x2000 0x90;
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "unrelated store is free" 2 !calls

let test_icache_perm_and_unmap_invalidate () =
  let m, c, calls, decode = icache_fixture () in
  ignore (Memsim.Icache.lookup c 0x1000 ~decode);
  Mem.set_perm m ~base:0x1000 Mem.rx;
  ignore (Memsim.Icache.lookup c 0x1000 ~decode);
  check_int "mprotect forces re-decode" 2 !calls;
  Mem.unmap m ~base:0x1000;
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text2";
  ignore (Memsim.Icache.lookup c 0x1000 ~decode);
  check_int "unmap/remap forces re-decode" 3 !calls

let test_icache_straddling_entry () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  let c = Memsim.Icache.create ~dummy:0 m in
  let calls = ref 0 in
  let decode _ addr =
    incr calls;
    (addr, 6)
  in
  (* 6 bytes starting 2 before the page boundary: the entry depends on
     both pages' generations. *)
  let e = Memsim.Icache.lookup c 0x1FFE ~decode in
  check_int "entry records the second page's generation" (Mem.page_gen m 0x2000)
    e.Memsim.Icache.hi_gen;
  ignore (Memsim.Icache.lookup c 0x1FFE ~decode);
  check_int "hit while both pages clean" 1 !calls;
  (* Touching the second page alone must invalidate. *)
  Mem.write_u8 m 0x2800 1;
  ignore (Memsim.Icache.lookup c 0x1FFE ~decode);
  check_int "second-page store invalidates" 2 !calls;
  (* And a non-straddling entry records no second page. *)
  let e2 = Memsim.Icache.lookup c 0x1100 ~decode in
  check_int "same-page entry has no second generation" (-1) e2.Memsim.Icache.hi_gen

(* --- Copy-on-write snapshots --- *)

let test_snapshot_restore_bytes () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x3000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "original";
  Mem.write_u32 m 0x2FFC 0xCAFE;
  let snap = Mem.snapshot m in
  check_int "snapshot pins the pages" 3 (Mem.snapshot_pages snap);
  Mem.write_bytes m 0x1000 "clobber!";
  Mem.write_u32 m 0x2FFC 0xDEAD;
  Mem.write_u8 m 0x2000 0x55;
  Mem.restore m snap;
  check_string "first page restored" "original" (Mem.read_bytes m 0x1000 8);
  check_int "last page restored" 0xCAFE (Mem.read_u32 m 0x2FFC);
  check_int "middle page restored to zero" 0 (Mem.read_u8 m 0x2000);
  (* The snapshot stays valid: dirty and restore again. *)
  Mem.write_bytes m 0x1000 "again!!!";
  Mem.restore m snap;
  check_string "second restore identical" "original" (Mem.read_bytes m 0x1000 8)

let test_snapshot_gen_contract () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  Mem.write_u8 m 0x1000 0x90;
  let snap = Mem.snapshot m in
  let g_text = Mem.page_gen m 0x1000 in
  let g_data = Mem.page_gen m 0x2000 in
  Mem.write_u8 m 0x2000 1;
  let g_dirty = Mem.page_gen m 0x2000 in
  check_bool "store bumps even when frozen" true (g_dirty <> g_data);
  Mem.restore m snap;
  (* Untouched pages keep their generation (cached decodes stay hot);
     dirtied pages come back under a *fresh* one (caches must refill) —
     the counter never rewinds. *)
  check_int "untouched page keeps its generation" g_text (Mem.page_gen m 0x1000);
  let g_back = Mem.page_gen m 0x2000 in
  check_bool "dirty page gets a fresh generation" true
    (g_back <> g_data && g_back <> g_dirty);
  check_int "bytes came back" 0 (Mem.read_u8 m 0x2000)

let test_snapshot_region_table () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rx ~name:"a";
  let snap = Mem.snapshot m in
  Mem.set_perm m ~base:0x1000 Mem.rw;
  Mem.map m ~base:0x5000 ~size:0x1000 ~perm:Mem.rw ~name:"b";
  Mem.write_u8 m 0x5000 7;
  Mem.restore m snap;
  check_int "one region again" 1 (List.length (Mem.regions m));
  check_bool "mapped-after-snapshot region is gone" false (Mem.is_mapped m 0x5000);
  expect_fault Mem.Unmapped (fun () -> Mem.read_u8 m 0x5000);
  check_bool "permission change rolled back" true
    ((Mem.find_region m "a").Mem.perm = Mem.rx);
  expect_fault Mem.Perm_write (fun () -> Mem.write_u8 m 0x1000 1);
  (* And a region unmapped after the snapshot comes back. *)
  let snap2 = Mem.snapshot m in
  Mem.unmap m ~base:0x1000;
  Mem.restore m snap2;
  check_bool "unmapped region restored" true (Mem.is_mapped m 0x1000)

let test_fork_independence () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
  Mem.write_u8 m 0x1000 0xAB;
  let snap = Mem.snapshot m in
  let f1 = Mem.fork snap in
  let f2 = Mem.fork snap in
  check_int "fork sees snapshot bytes" 0xAB (Mem.read_u8 f1 0x1000);
  check_int "fork inherits regions" 1 (List.length (Mem.regions f1));
  Mem.write_u8 f1 0x1000 0xCD;
  Mem.write_u8 m 0x1004 0x77;
  check_int "parent unaffected by fork write" 0xAB (Mem.read_u8 m 0x1000);
  check_int "fork unaffected by parent write" 0 (Mem.read_u8 f1 0x1004);
  check_int "sibling fork unaffected by both" 0xAB (Mem.read_u8 f2 0x1000);
  check_int "sibling fork clean at 0x1004" 0 (Mem.read_u8 f2 0x1004);
  (* The parent's snapshot still restores after forks diverged. *)
  Mem.restore m snap;
  check_int "parent restore exact" 0xAB (Mem.read_u8 m 0x1000);
  check_int "parent restore clears own write" 0 (Mem.read_u8 m 0x1004)

let test_snapshot_icache_coherent () =
  let m, c, calls, decode = icache_fixture () in
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  ignore (Memsim.Icache.lookup c 0x2008 ~decode);
  check_int "two fills" 2 !calls;
  let snap = Mem.snapshot m in
  (* A cached decode survives snapshotting (freeze is not a write). *)
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "snapshot itself invalidates nothing" 2 !calls;
  Mem.write_u8 m 0x1008 0x90;
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "post-snapshot store invalidates" 3 !calls;
  Mem.restore m snap;
  (* The restored page carries a fresh generation: the entry filled from
     the in-between bytes must not revalidate. *)
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "restore forces re-decode of dirtied page" 4 !calls;
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "then caches again" 4 !calls;
  (* The page never written between snapshot and restore stays hot. *)
  ignore (Memsim.Icache.lookup c 0x2008 ~decode);
  check_int "untouched page's entry survives restore" 4 !calls

(* --- One decode table shared by a memory and its forks --- *)

(* A decoder that returns the bytes it fetched, through the execute
   check like the real ones: a lookup's value shows exactly which bytes
   (and which memory's) it was decoded from. *)
let fetch_decode len mem addr =
  (String.init len (fun i -> Char.chr (Mem.fetch_u8 mem (addr + i))), len)

(* Look up [addr] in [mem] through a fresh handle over [table]: the
   decoded bytes, and whether the lookup had to decode. *)
let shared_lookup ?(len = 4) table mem addr =
  let h = Memsim.Icache.attach table mem in
  let e = Memsim.Icache.lookup h addr ~decode:(fetch_decode len) in
  (e.Memsim.Icache.v, Memsim.Icache.misses h = 1)

let text_lineage () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  Mem.poke_bytes m 0x1000 "AAAA";
  (m, Memsim.Icache.table ~dummy:"" m)

let check_lookup name ?len table mem addr ~bytes ~filled =
  let v, miss = shared_lookup ?len table mem addr in
  check_string (name ^ ": bytes") bytes v;
  check_bool (name ^ ": filled") filled miss

let test_icache_shared_by_forks () =
  let m, table = text_lineage () in
  check_lookup "parent fills" table m 0x1000 ~bytes:"AAAA" ~filled:true;
  let snap = Mem.snapshot m in
  let f1 = Mem.fork snap and f2 = Mem.fork snap in
  check_lookup "fork hits the parent's decode" table f1 0x1000 ~bytes:"AAAA"
    ~filled:false;
  check_lookup "sibling hits it too" table f2 0x1000 ~bytes:"AAAA" ~filled:false;
  (* Shellcode-style rewrite in one fork: it runs its own bytes, and the
     others never see them. *)
  Mem.write_bytes f1 0x1000 "BBBB";
  check_lookup "writer re-decodes" table f1 0x1000 ~bytes:"BBBB" ~filled:true;
  check_lookup "sibling keeps its bytes" table f2 0x1000 ~bytes:"AAAA"
    ~filled:true;
  check_lookup "parent keeps its bytes" table m 0x1000 ~bytes:"AAAA"
    ~filled:false;
  check_lookup "writer again" table f1 0x1000 ~bytes:"BBBB" ~filled:true;
  (* A store in the parent after the fork is the parent's alone. *)
  Mem.write_bytes m 0x1000 "CCCC";
  check_lookup "parent's new bytes" table m 0x1000 ~bytes:"CCCC" ~filled:true;
  check_lookup "sibling unaffected" table f2 0x1000 ~bytes:"AAAA" ~filled:true;
  (* Another lineage's memory cannot use the table. *)
  let other, _ = text_lineage () in
  Alcotest.check_raises "foreign lineage rejected"
    (Invalid_argument "Icache.attach: memory is not of the table's lineage")
    (fun () -> ignore (Memsim.Icache.attach table other))

let test_icache_fork_unmap_remap () =
  let m, table = text_lineage () in
  ignore (shared_lookup table m 0x1000);
  let f = Mem.fork (Mem.snapshot m) in
  (* A long-lived handle in the fork keeps its page's cell bound across
     the remap; the remapped page must still re-decode. *)
  let h = Memsim.Icache.attach table f in
  let look () =
    (Memsim.Icache.lookup h 0x1000 ~decode:(fetch_decode 4)).Memsim.Icache.v
  in
  check_string "fork hits" "AAAA" (look ());
  Mem.unmap f ~base:0x1000;
  expect_fault Mem.Unmapped look;
  Mem.map f ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text2";
  check_string "remapped page decodes its zeros" "\000\000\000\000" (look ());
  Mem.poke_bytes f 0x1000 "DDDD";
  check_string "then its new bytes" "DDDD" (look ());
  check_int "two fills in the fork" 2 (Memsim.Icache.misses h);
  check_lookup "parent untouched by the fork's remap" table m 0x1000
    ~bytes:"AAAA" ~filled:true

let test_icache_fork_set_perm () =
  let m, table = text_lineage () in
  ignore (shared_lookup table m 0x1000);
  let f = Mem.fork (Mem.snapshot m) in
  Mem.set_perm f ~base:0x1000 Mem.rw;
  expect_fault Mem.Perm_exec (fun () -> shared_lookup table f 0x1000);
  check_lookup "parent still executes" table m 0x1000 ~bytes:"AAAA"
    ~filled:false;
  Mem.set_perm f ~base:0x1000 Mem.rx;
  check_lookup "fork re-admits after mprotect" table f 0x1000 ~bytes:"AAAA"
    ~filled:true

let test_icache_fork_straddle () =
  let m, table = text_lineage () in
  Mem.poke_bytes m 0x1FFE "XYZWUV";
  check_lookup ~len:6 "parent fills the straddling decode" table m 0x1FFE
    ~bytes:"XYZWUV" ~filled:true;
  let f = Mem.fork (Mem.snapshot m) in
  check_lookup ~len:6 "fork hits it" table f 0x1FFE ~bytes:"XYZWUV" ~filled:false;
  (* Only the second page changes in the fork. *)
  Mem.write_u8 f 0x2001 (Char.code 'Q');
  check_lookup ~len:6 "fork sees its second page" table f 0x1FFE
    ~bytes:"XYZQUV" ~filled:true;
  check_lookup ~len:6 "parent keeps its second page" table m 0x1FFE
    ~bytes:"XYZWUV" ~filled:true

(* --- The shared zero page --- *)

let zeros n = String.make n '\000'

let test_zero_page_isolation () =
  let m = fresh () in
  (* Mapping allocates no page buffers: 1 MB of fresh pages costs far
     less than one buffer's worth per page. *)
  let before = Gc.allocated_bytes () in
  Mem.map m ~base:0x100000 ~size:0x100000 ~perm:Mem.rw ~name:"big";
  check_bool "mapping allocates no page buffers" true
    (Gc.allocated_bytes () -. before < float_of_int (0x100000 / 4));
  Mem.write_u8 m 0x180000 1;
  check_int "first store into it lands" 1 (Mem.read_u8 m 0x180000);
  check_int "neighbour byte still zero" 0 (Mem.read_u8 m 0x17FFFF);
  Mem.map m ~base:0x1000 ~size:0x4000 ~perm:Mem.rw ~name:"a";
  Mem.map m ~base:0x9000 ~size:0x2000 ~perm:Mem.rw ~name:"b";
  let all_zero_but except mem =
    List.iter
      (fun base ->
        if base <> except then
          check_string
            (Printf.sprintf "page %x still zero" base)
            (zeros Mem.page_size)
            (Mem.read_bytes mem base Mem.page_size))
      [ 0x1000; 0x2000; 0x3000; 0x4000; 0x9000; 0xA000 ]
  in
  Mem.write_u8 m 0x2345 0xEE;
  check_int "the write landed" 0xEE (Mem.read_u8 m 0x2345);
  all_zero_but 0x2000 m;
  let snap = Mem.snapshot m in
  let f = Mem.fork snap in
  Mem.write_u32 f 0x9FFC 0xFFFF_FFFF;
  Mem.write_bytes f 0x3FFE "spans";
  check_int "parent's b page untouched by the fork" 0 (Mem.read_u32 m 0x9FFC);
  all_zero_but 0x2000 m;
  check_string "fork's straddling write" "spans" (Mem.read_bytes f 0x3FFE 5);
  check_string "fork's untouched page" (zeros Mem.page_size)
    (Mem.read_bytes f 0x1000 Mem.page_size);
  Mem.write_u8 m 0x4000 0x11;
  Mem.write_u8 m 0x2345 0;
  Mem.restore m snap;
  all_zero_but 0x2000 m;
  check_int "restore brings the first write back" 0xEE (Mem.read_u8 m 0x2345);
  (* A region mapped after the forks starts zero as well. *)
  Mem.map f ~base:0x20000 ~size:0x1000 ~perm:Mem.rw ~name:"late";
  check_string "late mapping is zero" (zeros Mem.page_size)
    (Mem.read_bytes f 0x20000 Mem.page_size);
  check_string "fork's a page kept zero" (zeros Mem.page_size)
    (Mem.read_bytes f 0x1000 Mem.page_size)

(* --- In-place restore: a private page buffer is rewritten, not swapped --- *)

(* Two snapshots of one memory, restored in both orders with stores in
   between.  A fork made at snapshot time reads the frames' own buffers
   (it shares them and never writes), so checking the forks after every
   step proves no restore wrote into a buffer a snapshot holds. *)
let test_restore_interleaved_snapshots () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "AAAA";
  Mem.write_bytes m 0x2000 "aaaa";
  let s1 = Mem.snapshot m in
  let f1 = Mem.fork s1 in
  Mem.write_bytes m 0x1000 "BBBB";
  let s2 = Mem.snapshot m in
  let f2 = Mem.fork s2 in
  let state mem = (Mem.read_bytes mem 0x1000 4, Mem.read_bytes mem 0x2000 4) in
  let check_state name mem (lo, hi) =
    let got_lo, got_hi = state mem in
    check_string (name ^ ": first page") lo got_lo;
    check_string (name ^ ": second page") hi got_hi
  in
  let frames_intact step =
    check_state (step ^ ", S1's frames") f1 ("AAAA", "aaaa");
    check_state (step ^ ", S2's frames") f2 ("BBBB", "aaaa")
  in
  let restore name snap want =
    Mem.restore m snap;
    check_state name m want;
    frames_intact name
  in
  let s1_bytes = ("AAAA", "aaaa") and s2_bytes = ("BBBB", "aaaa") in
  (* Right after S2 the page is frozen on S2's buffer: it is pointed at
     S1's, never written. *)
  restore "S1 right after S2" s1 s1_bytes;
  restore "S2 right after S1" s2 s2_bytes;
  Mem.write_bytes m 0x1000 "CCCC";
  Mem.write_bytes m 0x2000 "cccc";
  restore "S1 after two writes" s1 s1_bytes;
  Mem.write_bytes m 0x1000 "DDDD";
  Mem.write_bytes m 0x2000 "dddd";
  restore "S2 after S1" s2 s2_bytes;
  Mem.write_bytes m 0x1000 "EEEE";
  restore "S1 after S2" s1 s1_bytes;
  let g = Mem.page_gen m 0x1000 in
  restore "S1 again, no store between" s1 s1_bytes;
  check_int "a clean re-restore keeps the generation" g (Mem.page_gen m 0x1000);
  restore "S2 with no store between" s2 s2_bytes;
  check_bool "another snapshot's bytes take a fresh generation" true
    (Mem.page_gen m 0x1000 <> g);
  Mem.write_bytes m 0x2000 "ffff";
  restore "S1 after a second-page store" s1 s1_bytes;
  Mem.write_bytes m 0x1000 "GGGG";
  restore "S2 last" s2 s2_bytes;
  (* A store in a fork unshares the fork's page, not the frame. *)
  Mem.write_bytes f1 0x1000 "HHHH";
  check_state "a fresh fork of S1" (Mem.fork s1) s1_bytes;
  Mem.restore m s1;
  check_state "S1 after a fork's store" m s1_bytes;
  check_string "the fork kept its store" "HHHH" (Mem.read_bytes f1 0x1000 4)

let test_restore_reuses_private_buffer () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"stack";
  Mem.write_u32 m 0x1000 0xC0FFEE;
  let snap = Mem.snapshot m in
  (* Warm up: the first store after the snapshot unshares the page. *)
  Mem.write_u8 m 0x1004 1;
  Mem.restore m snap;
  Mem.write_u8 m 0x1004 1;
  let before = (Gc.quick_stat ()).Gc.major_words in
  for i = 1 to 100 do
    Mem.restore m snap;
    check_int "restored" 0 (Mem.read_u8 m 0x1004);
    Mem.write_u8 m 0x1004 i
  done;
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  (* One page copy is 512 words of bytes plus a header. *)
  check_bool
    (Printf.sprintf "100 restore + store cycles: %.0f major words, under one page copy" words)
    true (words < 513.);
  Mem.restore m snap;
  check_int "snapshot bytes intact" 0xC0FFEE (Mem.read_u32 m 0x1000)

let test_restore_in_place_icache () =
  let m, table = text_lineage () in
  let h = Memsim.Icache.attach table m in
  let look () =
    (Memsim.Icache.lookup h 0x1000 ~decode:(fetch_decode 4)).Memsim.Icache.v
  in
  check_string "snapshot bytes" "AAAA" (look ());
  let snap = Mem.snapshot m in
  Mem.write_bytes m 0x1000 "BBBB";
  check_string "store after the snapshot" "BBBB" (look ());
  Mem.restore m snap;
  check_string "restore re-decodes" "AAAA" (look ());
  (* The page is private now: this store and the next restore reuse its
     buffer, and the entries filled in between must still go stale. *)
  Mem.write_bytes m 0x1000 "CCCC";
  check_string "store into the kept buffer" "CCCC" (look ());
  Mem.restore m snap;
  check_string "in-place restore re-decodes" "AAAA" (look ());
  check_int "one fill per change" 5 (Memsim.Icache.misses h);
  Mem.restore m snap;
  check_string "clean re-restore" "AAAA" (look ());
  check_int "and its entry stays hot" 5 (Memsim.Icache.misses h)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"restore rewinds arbitrary write sequences" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 20)
           (pair (int_range 0 0x1FFF) (int_range 0 255)))
        (list_of_size (Gen.int_range 0 20)
           (pair (int_range 0 0x1FFF) (int_range 0 255))))
    (fun (before, after) ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
      List.iter (fun (off, v) -> Mem.write_u8 m (0x4000 + off) v) before;
      let expected = Mem.peek_bytes m 0x4000 0x2000 in
      let snap = Mem.snapshot m in
      List.iter (fun (off, v) -> Mem.write_u8 m (0x4000 + off) v) after;
      Mem.restore m snap;
      Mem.peek_bytes m 0x4000 0x2000 = expected)

let test_shadow_snapshot_restore () =
  let module Shadow = Memsim.Shadow in
  let sh = Shadow.create () in
  Shadow.set sh 0x1000 (Shadow.make ~src:1 ~offset:0);
  Shadow.set sh 0x1001 (Shadow.make ~src:1 ~offset:1);
  Shadow.set sh 0x9F0000 (Shadow.make ~src:2 ~offset:44);
  let snap = Shadow.snapshot sh in
  Shadow.set sh 0x1000 Shadow.clean;
  Shadow.set sh 0x2000 (Shadow.make ~src:3 ~offset:7);
  Shadow.clear_range sh 0x9F0000 ~len:16;
  Shadow.restore sh snap;
  check_int "tainted count back" 3 (Shadow.tainted sh);
  check_int "label back" (Shadow.make ~src:1 ~offset:0) (Shadow.get sh 0x1000);
  check_int "post-snapshot taint dropped" Shadow.clean (Shadow.get sh 0x2000);
  check_int "cleared range re-tainted" (Shadow.make ~src:2 ~offset:44)
    (Shadow.get sh 0x9F0000);
  (* Deep copy: mutating after restore never leaks into the snapshot. *)
  Shadow.clear sh;
  Shadow.restore sh snap;
  check_int "snapshot reusable after clear" 3 (Shadow.tainted sh)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "memsim"
    [
      ( "word",
        [
          Alcotest.test_case "wrap arithmetic" `Quick test_word_wrap;
          qt prop_word_signed_roundtrip;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "map/read/write" `Quick test_map_read_write;
          Alcotest.test_case "little-endian" `Quick test_little_endian;
          Alcotest.test_case "cross-page access" `Quick test_cross_page;
          Alcotest.test_case "unmapped faults" `Quick test_unmapped_fault;
          Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
          Alcotest.test_case "unmap frees pages" `Quick test_unmap;
          Alcotest.test_case "region queries" `Quick test_region_queries;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "write-protect" `Quick test_write_protect;
          Alcotest.test_case "NX fetch faults" `Quick test_nx_fetch;
          Alcotest.test_case "rwx stack fetch ok" `Quick test_executable_stack_fetch;
          Alcotest.test_case "mprotect" `Quick test_mprotect;
          Alcotest.test_case "peek/poke bypass" `Quick test_peek_poke_bypass_perms;
        ] );
      ( "data",
        [
          Alcotest.test_case "bytes and cstring" `Quick test_bytes_and_cstring;
          Alcotest.test_case "hexdump" `Quick test_hexdump;
          qt prop_byte_roundtrip;
          qt prop_u32_roundtrip;
          qt prop_write_bytes_read_bytes;
        ] );
      ( "write atomicity",
        [
          Alcotest.test_case "u32 into unmapped page" `Quick
            test_torn_write_u32_unmapped;
          Alcotest.test_case "u32 into protected page" `Quick
            test_torn_write_u32_protected;
          Alcotest.test_case "write_bytes/poke_bytes spans" `Quick
            test_torn_write_bytes;
        ] );
      ( "errors",
        [ Alcotest.test_case "descriptive invalid_arg" `Quick test_descriptive_errors ] );
      ( "generations",
        [
          Alcotest.test_case "page_gen protocol" `Quick test_page_generations;
          Alcotest.test_case "gen_ref cells" `Quick test_gen_ref_cells;
        ] );
      ( "icache",
        [
          Alcotest.test_case "hit and miss" `Quick test_icache_hit_and_miss;
          Alcotest.test_case "store invalidates" `Quick test_icache_write_invalidates;
          Alcotest.test_case "mprotect/unmap invalidate" `Quick
            test_icache_perm_and_unmap_invalidate;
          Alcotest.test_case "page-straddling entries" `Quick
            test_icache_straddling_entry;
          Alcotest.test_case "table shared by forks" `Quick
            test_icache_shared_by_forks;
          Alcotest.test_case "unmap/remap after fork" `Quick
            test_icache_fork_unmap_remap;
          Alcotest.test_case "mprotect after fork" `Quick test_icache_fork_set_perm;
          Alcotest.test_case "straddling entry after fork" `Quick
            test_icache_fork_straddle;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "restore rewinds bytes" `Quick
            test_snapshot_restore_bytes;
          Alcotest.test_case "generation contract" `Quick test_snapshot_gen_contract;
          Alcotest.test_case "region table rollback" `Quick
            test_snapshot_region_table;
          Alcotest.test_case "fork independence" `Quick test_fork_independence;
          Alcotest.test_case "icache coherent across restore" `Quick
            test_snapshot_icache_coherent;
          Alcotest.test_case "zero page stays zero" `Quick test_zero_page_isolation;
          Alcotest.test_case "interleaved snapshots, in-place restore" `Quick
            test_restore_interleaved_snapshots;
          Alcotest.test_case "restore reuses a private buffer" `Quick
            test_restore_reuses_private_buffer;
          Alcotest.test_case "icache coherent across in-place restore" `Quick
            test_restore_in_place_icache;
          qt prop_snapshot_roundtrip;
          Alcotest.test_case "shadow snapshot/restore" `Quick
            test_shadow_snapshot_restore;
        ] );
      ( "rng",
        [
          qt prop_rng_deterministic;
          qt prop_rng_bound;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
    ]
