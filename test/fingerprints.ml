(* Behaviour lock: run the fuzz flag sets of ci.yml's fuzz steps through
   [Fuzz.run_trace_full] and print, per set, the traces run, the traces
   passed and the MD5 of every trace's verdict, shape ([pp_summary]) and
   counter fingerprint ([pp_fingerprint]). dune diffs the default output
   against fingerprints.expected, so a change that moves one scheduled
   event, RNG draw or counter of any of these runs fails the suite.

   The flag list below mirrors the non-differential flag sets of
   ci.yml's fuzz steps (a differential pass contributes its flags
   without --differential); keep the two in step.

   Traces are generated as [drtree_cli fuzz] generates them: both modes
   (or the one named), every schedule kind (or the one named), an RNG
   per (mode, schedule) seeded [seed + 1000 * mode + 100 * schedule].

     fingerprints.exe                     the digest lines (seed 1, 20
                                          traces per (mode, schedule))
     fingerprints.exe --full --seeds 5 --traces 200
                                          one line per trace, seeds 1-5,
                                          for a [diff] of two builds *)

module Trace = Mck.Trace
module Fuzz = Mck.Fuzz
module Schedule = Mck.Schedule

type set = {
  label : string;
  mode : Trace.mode option;  (** [None]: both *)
  sched : Schedule.kind option;  (** [None]: every kind *)
  transport : Trace.transport;
  drop : float;
  dup : float;
  config : string;
}

let set ?mode ?sched ?(transport = Trace.Inproc) ?(drop = 0.0) ?(dup = 0.0)
    ?(config = "") label =
  { label; mode; sched; transport; drop; dup; config }

(* Mirrors ci.yml's fuzz steps. *)
let sets =
  [
    set "plain";
    set "wire" ~transport:Trace.Wire;
    set "wire-drop.15-dup.1" ~transport:Trace.Wire ~drop:0.15 ~dup:0.1;
    set "mp-delay-checks" ~mode:Trace.Message_passing
      ~sched:Schedule.Delay_checks;
    set "mp-wire-drop.1" ~mode:Trace.Message_passing ~transport:Trace.Wire
      ~drop:0.1;
    set "wire-drop.1" ~transport:Trace.Wire ~drop:0.1;
    set "heartbeat" ~config:"detector=heartbeat";
    set "heartbeat-wire-drop.1" ~config:"detector=heartbeat"
      ~transport:Trace.Wire ~drop:0.1;
    set "forest4" ~config:"forest=4";
    set "forest2-wire" ~config:"forest=2" ~transport:Trace.Wire;
  ]

let mode_label = function
  | Trace.Shared -> "shared"
  | Trace.Message_passing -> "mp"

(* Every trace's line for one set at one seed, in generation order. *)
let lines ~seed ~traces s =
  let config =
    match Drtree.Config.of_string s.config with
    | Ok c -> c
    | Error e -> failwith (s.label ^ ": " ^ e)
  in
  let modes =
    match s.mode with
    | Some m -> [ m ]
    | None -> [ Trace.Shared; Trace.Message_passing ]
  in
  let scheds =
    match s.sched with Some k -> [ k ] | None -> Schedule.all_kinds
  in
  List.concat
    (List.mapi
       (fun mi m ->
         List.concat
           (List.mapi
              (fun si k ->
                let rng = Sim.Rng.make (seed + (1000 * mi) + (100 * si)) in
                List.init traces (fun i ->
                    let tr =
                      Fuzz.random_trace rng ~mode:m ~transport:s.transport
                        ~sched:k ~drop:s.drop ~dup:s.dup ~config ()
                    in
                    let outcome, summary, fp = Fuzz.run_trace_full tr in
                    let verdict =
                      match outcome with
                      | Fuzz.Passed -> "passed"
                      | Fuzz.Failed f ->
                          Format.asprintf "FAILED %a" Fuzz.pp_failure f
                    in
                    ( outcome = Fuzz.Passed,
                      Format.asprintf "%s seed=%d %s %s #%d %s | %a | %a"
                        s.label seed (mode_label m)
                        (Schedule.kind_to_string k) i verdict Fuzz.pp_summary
                        summary Fuzz.pp_fingerprint fp )))
              scheds))
       modes)

let () =
  let full = ref false and seeds = ref 1 and traces = ref 20 in
  Arg.parse
    [
      ("--full", Arg.Set full, " print every trace's line, not the digests");
      ("--seeds", Arg.Set_int seeds, "K run seeds 1..K (default 1)");
      ( "--traces",
        Arg.Set_int traces,
        "T traces per (mode, schedule) and seed (default 20)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fingerprints.exe [--full] [--seeds K] [--traces T]";
  List.iter
    (fun s ->
      let all =
        List.concat
          (List.init !seeds (fun i -> lines ~seed:(i + 1) ~traces:!traces s))
      in
      if !full then List.iter (fun (_, l) -> print_endline l) all
      else
        let passed = List.length (List.filter fst all) in
        let digest =
          Digest.to_hex
            (Digest.string (String.concat "\n" (List.map snd all)))
        in
        Printf.printf "%-22s traces=%d passed=%d md5=%s\n" s.label
          (List.length all) passed digest)
    sets
