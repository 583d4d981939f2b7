(* Monotonic wall clock (CLOCK_MONOTONIC via bechamel's stub).  Every
   duration the benchmark reports comes from here: [Sys.time] is process
   CPU time and [Unix.gettimeofday] can step, so neither is used. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

(* [time f] runs [f] and returns its result with the elapsed ns. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
