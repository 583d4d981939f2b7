(* End-to-end benchmark entry point.

     main.exe --workload daemon-stream|fuzz|fleet --seed N --seconds S --trace 0|1

   Prints a human-readable summary, then as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
   reports the end-to-end metrics, --trace 1 the per-layer ones and
   writes the span trace under e2e_bench/_out/. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload daemon-stream|fuzz|fleet --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" in
  if (not (List.mem workload E2e.Workload.names)) || seconds < 1 || (trace <> 0 && trace <> 1)
  then usage ();
  let scale = E2e.Workload.full and seconds = float_of_int seconds in
  let r =
    if trace = 0 then E2e.Workload.untraced ~scale ~workload ~seed ~seconds
    else begin
      let dir = Filename.concat "e2e_bench" "_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let trace_file =
        Some (Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed))
      in
      E2e.Workload.traced ~scale ~workload ~seed ~seconds ~trace_file
    end
  in
  List.iter print_endline r.E2e.Workload.notes;
  List.iter
    (fun m -> Printf.printf "%-48s %18.6f %s\n" m.E2e.Layers.name m.E2e.Layers.value m.E2e.Layers.unit_)
    r.E2e.Workload.metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.E2e.Layers.value) r.E2e.Workload.metrics in
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.E2e.Layers.name
             m.E2e.Layers.value m.E2e.Layers.unit_)
         r.E2e.Workload.metrics)
  in
  if not finite then begin
    prerr_endline "e2e_bench: a metric is not a finite number";
    exit 1
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.E2e.Workload.failed = 0) r.E2e.Workload.attempted r.E2e.Workload.failed metrics
