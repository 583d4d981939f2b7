(* AFL-style edge coverage over the retired-instruction stream.

   The map does not hook the interpreters itself: {!touch} takes any pc
   stream.  The engine passes it as [Process.call]'s [~on_step], which
   the hooked interpreter loop calls with every pc it fetches.

   An edge is the (previous pc, pc) pair, hashed into a fixed 64 Ki
   bucket map, one byte per bucket:

   - [never]: no execution has hit the bucket;
   - [pending]: the current execution hit it first — recorded once in
     [fresh], the byte itself deduplicating later hits;
   - [seen]: a committed execution hit it.

   {!touch} tests one byte per instruction.  Only a bucket no execution
   has hit yet is recorded, which after the first few execs almost never
   happens (the whole Connman parse path is ~130 edges), so an exec
   allocates nothing.  {!commit} promotes the pending buckets and
   reports how many there were, which is the fuzzer's "interesting
   input" signal. *)

let buckets = 1 lsl 16
let never = '\000'
let seen = '\001'
let pending = '\002'

type t = {
  map : Bytes.t;  (* [never] / [pending] / [seen], one byte per bucket *)
  mutable fresh : int array;  (* buckets [pending] this exec, in [0, nfresh) *)
  mutable nfresh : int;
  mutable prev : int;
  mutable edges : int;  (* distinct buckets ever committed *)
}

let create () =
  { map = Bytes.make buckets never; fresh = Array.make 64 0; nfresh = 0; prev = 0; edges = 0 }

(* An exec abandoned without {!commit} leaves its buckets [pending]:
   they go back to [never], as if it had not run. *)
let begin_exec t =
  for i = 0 to t.nfresh - 1 do
    Bytes.unsafe_set t.map t.fresh.(i) never
  done;
  t.nfresh <- 0;
  t.prev <- 0

let[@inline never] record t b =
  Bytes.unsafe_set t.map b pending;
  if t.nfresh = Array.length t.fresh then begin
    let a = Array.make (2 * t.nfresh) 0 in
    Array.blit t.fresh 0 a 0 t.nfresh;
    t.fresh <- a
  end;
  t.fresh.(t.nfresh) <- b;
  t.nfresh <- t.nfresh + 1

(* Fibonacci-hash the edge into a bucket.  The multiply decorrelates the
   low bits of [prev] and [pc] (consecutive instructions differ only in
   their low bits), the mask keeps the result in range. *)
let touch t pc =
  let b = ((t.prev * 0x9E3779B1) lxor pc) land (buckets - 1) in
  if Bytes.unsafe_get t.map b = never then record t b;
  t.prev <- pc

let commit t =
  let n = t.nfresh in
  for i = 0 to n - 1 do
    Bytes.unsafe_set t.map t.fresh.(i) seen
  done;
  t.nfresh <- 0;
  t.edges <- t.edges + n;
  n

let edges t = t.edges
