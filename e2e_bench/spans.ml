(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, made from the
   benchmark's own code: name ([<layer>.<call>]), start, end, the
   enclosing span and the op it belongs to.  Spans stay in memory while
   the run measures and are written once at the end as Chrome/Perfetto
   JSON ("X" complete events), with each layer's self time — a span's
   duration minus the part its child spans cover.

   Spans live in an off-heap int Bigarray, five ints each, so that
   keeping hundreds of thousands of them costs the major GC nothing: the
   fuzz and daemon-stream loops run thousands of major cycles, and a
   heap of span records would make every one of them slower. *)

module A = Bigarray.Array1

let fields = 5 (* name, parent, op, start ns, stop ns *)

type t = {
  t0 : int;
  mutable buf : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  mutable len : int;
  mutable open_ : int list;  (* innermost first *)
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
}

let create () =
  {
    t0 = Clock.now_ns ();
    buf = A.create Bigarray.int Bigarray.c_layout (fields * 4096);
    len = 0;
    open_ = [];
    ids = Hashtbl.create 64;
    names = [||];
  }

let count t = t.len
let get t i f = A.unsafe_get t.buf ((fields * i) + f)
let name_at t i = t.names.(get t i 0)
let parent t i = get t i 1
let op t i = get t i 2
let dur t i = get t i 4 - get t i 3

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      Hashtbl.replace t.ids name i;
      t.names <- Array.append t.names [| name |];
      i

let push t name ~parent ~op ~start_ns ~stop_ns =
  if fields * (t.len + 1) > A.dim t.buf then begin
    let bigger = A.create Bigarray.int Bigarray.c_layout (2 * A.dim t.buf) in
    A.blit t.buf (A.sub bigger 0 (A.dim t.buf));
    t.buf <- bigger
  end;
  let b = fields * t.len in
  A.unsafe_set t.buf b (intern t name);
  A.unsafe_set t.buf (b + 1) parent;
  A.unsafe_set t.buf (b + 2) op;
  A.unsafe_set t.buf (b + 3) start_ns;
  A.unsafe_set t.buf (b + 4) stop_ns;
  t.len <- t.len + 1;
  t.len - 1

(* The innermost open span and its op, or none. *)
let context t = match t.open_ with p :: _ -> (p, op t p) | [] -> (-1, -1)

let enter t ?op name =
  let parent, op0 = context t in
  let op = Option.value op ~default:op0 in
  let id = push t name ~parent ~op ~start_ns:(Clock.now_ns ()) ~stop_ns:0 in
  t.open_ <- id :: t.open_

let leave t =
  match t.open_ with
  | s :: rest ->
      A.set t.buf ((fields * s) + 4) (Clock.now_ns ());
      t.open_ <- rest
  | [] -> invalid_arg "Spans.leave: no open span"

(* [wrap spans name f] runs [f] inside a span when tracing, and just runs
   it otherwise. *)
let wrap spans ?op name f =
  match spans with
  | None -> f ()
  | Some t ->
      enter t ?op name;
      Fun.protect ~finally:(fun () -> leave t) f

(* A span measured elsewhere, recorded under the innermost open span. *)
let record t name ~start_ns ~stop_ns =
  let parent, op = context t in
  ignore (push t name ~parent ~op ~start_ns ~stop_ns)

(* Durations of the spans called [name] with index >= [from], in us. *)
let durations_us t ~from name =
  let acc = ref [] in
  for i = from to t.len - 1 do
    if String.equal (name_at t i) name then acc := Clock.us_of_ns (dur t i) :: !acc
  done;
  Array.of_list !acc

(* Self time summed per layer, in seconds, largest first. *)
let self_time t =
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = parent t i in
    if p >= 0 then child.(p) <- child.(p) + dur t i
  done;
  let per = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let l = layer (name_at t i) in
    Hashtbl.replace per l
      (dur t i - child.(i) + Option.value (Hashtbl.find_opt per l) ~default:0)
  done;
  Hashtbl.fold (fun l ns acc -> (l, Clock.s_of_ns ns) :: acc) per []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let to_json t =
  let b = Buffer.create (160 * (t.len + 16)) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to t.len - 1 do
    if i > 0 then Buffer.add_string b ",\n";
    Printf.bprintf b
      "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
      (name_at t i)
      (layer (name_at t i))
      (Clock.us_of_ns (get t i 3 - t.t0))
      (Clock.us_of_ns (dur t i))
      i (parent t i) (op t i)
  done;
  Buffer.add_string b "\n],\"metadata\":{\"self_time_s_by_layer\":{";
  List.iteri
    (fun i (l, s) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:%.9f" l s)
    (self_time t);
  Buffer.add_string b "}}}\n";
  Buffer.contents b
