(* json_ok FILE...: print each file's JSON "schema" member (or "-" when
   it has none) if the file parses as JSON; exit 1 on a missing or
   malformed file.  Used by the CLI cram test. *)

let check path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      Printf.printf "%s: missing (%s)\n" path e;
      false
  | text -> (
      match Telemetry.Json.parse text with
      | Error e ->
          Printf.printf "%s: malformed (%s)\n" path e;
          false
      | Ok v ->
          let schema =
            Option.bind (Telemetry.Json.member "schema" v) Telemetry.Json.to_string
          in
          Printf.printf "%s: well-formed, schema %s\n" path
            (Option.value schema ~default:"-");
          true)

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if not (List.for_all Fun.id (List.map check files)) then exit 1
