(* Experiment harness entry point.

   Usage:
     dune exec bench/main.exe              # run every experiment
     dune exec bench/main.exe -- E5 E9     # run a subset
     dune exec bench/main.exe -- micro     # only the micro-benchmarks

   Each experiment regenerates one table of EXPERIMENTS.md. An id that
   names no experiment is an error (exit 2), so a typo fails loudly. *)

let () =
  Experiments.register ();
  let argv = List.tl (Array.to_list Sys.argv) in
  let args = List.map String.lowercase_ascii argv in
  let known =
    "all" :: "micro" :: "e12"
    :: List.map (fun e -> String.lowercase_ascii e.Harness.id) (Harness.all ())
  in
  (match
     List.filter (fun a -> not (List.mem (String.lowercase_ascii a) known)) argv
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment id(s): %s\n"
        (String.concat " " unknown);
      exit 2);
  let run_micro = args = [] || List.mem "micro" args || List.mem "e12" args in
  let experiment_ids =
    List.filter (fun a -> a <> "micro" && a <> "e12") args
  in
  if experiment_ids <> [] || args = [] || List.mem "all" args then
    Harness.run_selected
      (if List.mem "all" args then [] else experiment_ids);
  if run_micro then Micro.run ()
