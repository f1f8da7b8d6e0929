(* One benchmark run of one workload, in its own process (the OCaml major
   heap never shrinks, so workloads must not share a process):

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--setup-only] [--spans PATH]

   Prints the report, then as its last line one JSON object: the gated
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   --setup-only builds the deployment, prints {"setup_s": ...} and exits.
   perfbench/run.py drives it. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S approximate host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--setup-only", Arg.Set setup_only, " build the deployment, report setup_s, exit");
      ("--spans", Arg.Set_string spans, "PATH write the traced run's spans here (JSON lines)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload Perfbench.Workloads.all with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map fst Perfbench.Workloads.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  if !seconds <= 0.0 then (prerr_endline "--seconds must be positive"; exit 2);
  let traced = !trace = 1 in
  let o =
    {
      Perfbench.Workloads.seed = !seed;
      seconds = !seconds;
      traced;
      setup_only = !setup_only;
      spans_path = (if !spans = "" then None else Some !spans);
    }
  in
  match run o with
  | r ->
      Perfbench.Report.print_human r ~traced;
      print_endline (Perfbench.Report.final_line r ~traced)
  | exception Perfbench.Workloads.Setup_only secs ->
      Printf.printf "{\"setup_s\": %s}\n" (Perfbench.Report.num secs)
