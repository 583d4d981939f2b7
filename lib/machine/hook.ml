type transfer =
  | Fall
  | Call of { target : int; ret : int; indirect : bool }
  | Return of int
  | Jump of int
  | Syscall of { vector : int; number : int }

type ending = Trapped | Stopped of Outcome.stop_reason | Out_of_fuel

type view = {
  track : string;
  sysreg : string;
  pc : unit -> int;
  steps : unit -> int;
  shadow : unit -> int list;
  set_shadow : int list -> unit;
}

type 'insn t = {
  fetch : (int -> unit) option;
  check :
    (pc:int -> next:int -> 'insn -> transfer -> Outcome.stop_reason option) option;
  classify : bool;
  retire : (pc:int -> next:int -> unit) option;
  finish : (ending -> unit) option;
}

let nothing =
  { fetch = None; check = None; classify = false; retire = None; finish = None }

(* One hook calling every hook's callbacks in list order.  A callback
   only one hook has is used as is, and one no hook has stays [None], so
   the loop pays nothing for callbacks no hook uses — in particular it
   skips classification when no hook reads the transfer. *)
let compose hooks =
  let join field combine =
    match List.filter_map field hooks with
    | [] -> None
    | [ f ] -> Some f
    | fs -> Some (combine fs)
  in
  {
    fetch = join (fun h -> h.fetch) (fun fs pc -> List.iter (fun f -> f pc) fs);
    check =
      join
        (fun h -> h.check)
        (fun fs ~pc ~next insn tr -> List.find_map (fun f -> f ~pc ~next insn tr) fs);
    retire =
      join (fun h -> h.retire) (fun fs ~pc ~next -> List.iter (fun f -> f ~pc ~next) fs);
    classify = List.exists (fun h -> h.classify) hooks;
    finish = join (fun h -> h.finish) (fun fs e -> List.iter (fun f -> f e) fs);
  }

let traps = function
  | [] -> (-1, None)
  | [ a ] -> (a, None)
  | l ->
      let set = Hashtbl.create (2 * List.length l) in
      List.iter (fun a -> Hashtbl.replace set a ()) l;
      (-1, Some set)

let sample f = { nothing with fetch = Some f }

let trace v tr =
  let module Tr = Telemetry.Trace in
  let base = Tr.now tr in
  let emit name args =
    Tr.emit tr ~ts:(base + v.steps ()) ~cat:"cpu" ~track:v.track name ~args
  in
  emit "call" [ ("entry", Tr.I (v.pc ())) ];
  {
    nothing with
    check =
      Some
        (fun ~pc:_ ~next:_ _ tr ->
          (match tr with
          | Syscall { vector; number } ->
              emit "syscall" [ ("vector", Tr.I vector); (v.sysreg, Tr.I number) ]
          | _ -> ());
          None);
    classify = true;
    retire =
      Some
        (fun ~pc ~next ->
          let now = v.pc () in
          if now <> next then emit "bb" [ ("pc", Tr.I now); ("from", Tr.I pc) ]);
    finish =
      Some
        (fun e ->
          (match e with
          | Trapped -> emit "trap" [ ("pc", Tr.I (v.pc ())) ]
          | Stopped reason ->
              emit "stop"
                [ ("reason", Tr.S (Outcome.to_string reason)); ("pc", Tr.I (v.pc ())) ]
          | Out_of_fuel -> ());
          Tr.set_now tr (base + v.steps ()));
  }

let observers v ?trace:tr ?profile () =
  (match profile with
  | Some p -> [ sample (fun pc -> Telemetry.Profile.record p pc) ]
  | None -> [])
  @ match tr with Some tr -> [ trace v tr ] | None -> []

let cfi v ~shadow_stack ~forward_cfi ~valid_target =
  (* The shadow stack as it will be once the checked instruction retires;
     [pending] is false when the instruction leaves it alone. *)
  let after = ref [] and pending = ref false in
  let commit s =
    after := s;
    pending := true;
    None
  in
  let forward pc target =
    if forward_cfi && not (valid_target target) then
      Some (Outcome.Cfi_violation { at = pc; expected = 0; got = target })
    else None
  in
  {
    nothing with
    check =
      Some
        (fun ~pc ~next:_ _ tr ->
          pending := false;
          match tr with
          | Call { target; ret; indirect } -> (
              match if indirect then forward pc target else None with
              | None when shadow_stack -> commit (ret :: v.shadow ())
              | stop -> stop)
          | Jump target -> forward pc target
          | Return target when shadow_stack -> (
              match v.shadow () with
              | expected :: rest when expected = target -> commit rest
              | expected :: _ ->
                  Some (Outcome.Cfi_violation { at = pc; expected; got = target })
              | [] -> Some (Outcome.Cfi_violation { at = pc; expected = 0; got = target }))
          | Return _ | Fall | Syscall _ -> None);
    classify = true;
    retire =
      Some
        (fun ~pc:_ ~next:_ ->
          if !pending then begin
            v.set_shadow !after;
            pending := false
          end);
  }
