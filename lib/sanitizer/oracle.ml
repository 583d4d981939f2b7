module Shadow = Memsim.Shadow
module Tr = Telemetry.Trace

type kind =
  | Redzone_write
  | Ret_slot_overwrite
  | Tainted_pc
  | Tainted_syscall

let kind_name = function
  | Redzone_write -> "redzone-write"
  | Ret_slot_overwrite -> "ret-slot-overwrite"
  | Tainted_pc -> "tainted-pc"
  | Tainted_syscall -> "tainted-syscall"

let severity = function
  | Redzone_write -> 0
  | Ret_slot_overwrite -> 1
  | Tainted_pc -> 2
  | Tainted_syscall -> 3

type report = {
  kind : kind;
  step : int;
  pc : int;
  addr : int;
  target : int;
  label : Shadow.label;
  origin : string;
  detail : string;
}

let wire_offset r = Shadow.offset_of r.label
let source_id r = Shadow.source_of r.label

type source = { origin : string; length : int }

(* A redzone records whether it has already reported this parse, so an
   8 KiB smash yields one finding per zone rather than thousands. *)
type redzone = { base : int; len : int; mutable fired : bool }

type t = {
  shadow : Shadow.t;
  regs : int array;  (* 16 taint slots cover both ISAs; x86 uses 0..7 *)
  mutable sources : (int * source) list;  (* since [begin_parse], newest first *)
  mutable next_source : int;
  (* Live return slots: the first [n_slots] of [slots] are their base
     addresses, unordered, and [fired] says whether each has reported. *)
  mutable slots : int array;
  mutable fired : bool array;
  mutable n_slots : int;
  mutable redzones : redzone list;
  mutable reports : report list;  (* newest first *)
  mutable n_reports : int;
  counts : int array;  (* indexed by severity *)
  mutable trace : Tr.t option;
}

let create () =
  {
    shadow = Shadow.create ();
    regs = Array.make 16 0;
    sources = [];
    next_source = 0;
    slots = Array.make 16 0;
    fired = Array.make 16 false;
    n_slots = 0;
    redzones = [];
    reports = [];
    n_reports = 0;
    counts = Array.make 4 0;
    trace = None;
  }

let set_trace t tr = t.trace <- tr

let new_source t ~origin ~length =
  let id = t.next_source in
  t.next_source <- id + 1;
  t.sources <- (id, { origin; length }) :: t.sources;
  id

let origin_of t id =
  match List.assoc_opt id t.sources with Some s -> s.origin | None -> "?"

(* Sources are dropped here too: reports copy their origin when they
   fire, and ids keep counting up, so a daemon's oracle holds one
   datagram's source instead of every datagram it ever parsed. *)
let begin_parse t =
  t.sources <- [];
  Shadow.clear t.shadow;
  Array.fill t.regs 0 16 0;
  t.n_slots <- 0;
  t.redzones <- []

let taint t ~src addr ~len =
  for i = 0 to len - 1 do
    Shadow.set t.shadow
      (Memsim.Word.add addr i)
      (Shadow.make ~src ~offset:i)
  done

let mem_label t addr = Shadow.get t.shadow addr

let mem_label32 t addr = Shadow.get32 t.shadow addr

let set_mem_label t addr l = Shadow.set t.shadow addr l
let reg_label t i = t.regs.(i)
let set_reg_label t i l = t.regs.(i) <- l
let tainted_bytes t = Shadow.tainted t.shadow

let find_slot t addr =
  let rec go i = if i = t.n_slots || t.slots.(i) = addr then i else go (i + 1) in
  go 0

let note_ret_slot t addr =
  let i = find_slot t addr in
  if i = t.n_slots then begin
    if i = Array.length t.slots then begin
      let grow a fill =
        let b = Array.make (2 * i) fill in
        Array.blit a 0 b 0 i;
        b
      in
      t.slots <- grow t.slots 0;
      t.fired <- grow t.fired false
    end;
    t.slots.(i) <- addr;
    t.fired.(i) <- false;
    t.n_slots <- i + 1
  end

(* The last live slot takes the removed one's place. *)
let clear_ret_slot t addr =
  let i = find_slot t addr in
  if i < t.n_slots then begin
    let last = t.n_slots - 1 in
    t.slots.(i) <- t.slots.(last);
    t.fired.(i) <- t.fired.(last);
    t.n_slots <- last
  end

let ret_slot_count t = t.n_slots

let add_redzone t ~base ~len =
  if len > 0 then t.redzones <- { base; len; fired = false } :: t.redzones

let protect_frame t ~buffer (frame : Machine.Stack_frame.t) =
  note_ret_slot t (buffer + frame.off_ret);
  add_redzone t ~base:(buffer + frame.buffer_size)
    ~len:(frame.frame_end - frame.buffer_size)

let record t ~kind ~step ~pc ~addr ~target ~label ~detail =
  let origin = origin_of t (Shadow.source_of label) in
  let r = { kind; step; pc; addr; target; label; origin; detail } in
  t.reports <- r :: t.reports;
  t.n_reports <- t.n_reports + 1;
  t.counts.(severity kind) <- t.counts.(severity kind) + 1;
  match t.trace with
  | None -> ()
  | Some tr ->
      Tr.emit tr ~cat:"sanitizer" ~track:"sanitizer"
        ~args:
          [
            ("step", Tr.I step);
            ("pc", Tr.I pc);
            ("addr", Tr.I addr);
            ("target", Tr.I target);
            ("src", Tr.I (Shadow.source_of label));
            ("wire_offset", Tr.I (Shadow.offset_of label));
            ("detail", Tr.S detail);
          ]
        (kind_name kind)

(* The live slot a store over [addr, addr+len) hits, or -1: of the
   4-byte slots it overlaps, the one whose first covered byte is lowest,
   then the lowest slot — which is simply the lowest overlapping slot.
   Live slots are a call stack's worth, so a linear scan beats hashing
   every byte of the store.  An empty store covers nothing. *)
let hit_ret_slot t addr len =
  let best = ref (-1) in
  for i = 0 to (if len > 0 then t.n_slots - 1 else -1) do
    let s = Array.unsafe_get t.slots i in
    if s < addr + len && s + 4 > addr && (!best < 0 || s < t.slots.(!best)) then
      best := i
  done;
  !best

(* The first redzone in the list the store overlaps; it reports unless
   it already has. *)
let rec check_redzones t ~pc ~step ~addr ~len ~value ~label = function
  | [] -> ()
  | z :: rest ->
      if addr < z.base + z.len && addr + len > z.base then begin
        if not z.fired then begin
          z.fired <- true;
          record t ~kind:Redzone_write ~step ~pc ~addr ~target:value ~label
            ~detail:
              (Printf.sprintf "tainted write %d bytes past buffer end" (addr - z.base))
        end
      end
      else check_redzones t ~pc ~step ~addr ~len ~value ~label rest

let store t ~pc ~step ~addr ~len ~value ~label =
  Shadow.fill t.shadow addr ~len label;
  if label <> 0 then begin
    let i = hit_ret_slot t addr len in
    if i < 0 then check_redzones t ~pc ~step ~addr ~len ~value ~label t.redzones
    else if not t.fired.(i) then begin
      t.fired.(i) <- true;
      record t ~kind:Ret_slot_overwrite ~step ~pc ~addr:t.slots.(i) ~target:value
        ~label
        ~detail:(Printf.sprintf "tainted %d-byte store over return slot" len)
    end
  end

let check_pc t ~pc ~step ~target ~slot ~label ~detail =
  if label <> 0 then
    record t ~kind:Tainted_pc ~step ~pc ~addr:slot ~target ~label ~detail

let check_syscall t ~pc ~step ~number ~addr ~label ~detail =
  if label <> 0 then
    record t ~kind:Tainted_syscall ~step ~pc ~addr ~target:number ~label
      ~detail

let reports t = List.rev t.reports

let first_report t =
  match t.reports with [] -> None | l -> Some (List.nth l (List.length l - 1))

let report_count t = t.n_reports
let count t kind = t.counts.(severity kind)

let clear_reports t =
  t.reports <- [];
  t.n_reports <- 0;
  Array.fill t.counts 0 4 0

let pp_report ppf r =
  Format.fprintf ppf
    "%s step=%d pc=0x%x addr=0x%x target=0x%x src=%d wire+%d origin=%s (%s)"
    (kind_name r.kind) r.step r.pc r.addr r.target (source_id r)
    (wire_offset r) r.origin r.detail

let render ?symbolize r =
  let sym =
    match symbolize with
    | None -> Printf.sprintf "0x%x" r.pc
    | Some f -> f r.pc
  in
  Printf.sprintf
    "%-19s wire[%d]@%s -> mem 0x%x -> pc %s  step=%d target=0x%x  %s"
    (kind_name r.kind) (wire_offset r) r.origin r.addr sym r.step r.target
    r.detail

let register_metrics t reg =
  List.iter
    (fun kind ->
      Telemetry.Metrics.probe reg
        ~help:"sanitizer findings by detection kind"
        ~labels:[ ("kind", kind_name kind) ]
        ~kind:`Counter "sanitizer_reports_total" (fun () ->
          float_of_int (count t kind)))
    [ Redzone_write; Ret_slot_overwrite; Tainted_pc; Tainted_syscall ];
  Telemetry.Metrics.probe reg ~help:"taint sources registered"
    ~kind:`Counter "sanitizer_sources_total" (fun () ->
      float_of_int t.next_source);
  Telemetry.Metrics.probe reg ~help:"guest bytes currently tainted"
    ~kind:`Gauge "sanitizer_tainted_bytes" (fun () ->
      float_of_int (tainted_bytes t));
  Telemetry.Metrics.probe reg ~help:"live return-address slots"
    ~kind:`Gauge "sanitizer_ret_slots" (fun () ->
      float_of_int (ret_slot_count t))
