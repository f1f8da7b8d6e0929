(* The benchmark's own tests. Each workload runs once untraced and once
   traced at a tiny duration:

   - smoke: the run passes its correctness checks, and the metrics it
     prints are exactly the ones BENCHMARK.json names, with the same
     units (per-layer: the traced run's list plus [trace.overhead_pct],
     which run.py adds);
   - bit-identity: the traced and untraced runs at one seed agree exactly
     on every simulated-time figure, as Rolis.Trace promises and as a
     host-only change must keep. *)

open Perfbench

(* ---- the metric lists of BENCHMARK.json ----

   A minimal scan rather than a JSON parser: the file lists one metric
   object per line, each with "name" and "unit" keys. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_from s sub i =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

let string_after s key i =
  match find_from s ("\"" ^ key ^ "\": \"") i with
  | None -> None
  | Some j ->
      let start = j + String.length key + 5 in
      let stop = String.index_from s start '"' in
      Some (String.sub s start (stop - start), stop)

(* (name, unit) pairs of the metric objects between [section] and the
   next top-level key. *)
let section_metrics text section ~until =
  let start = Option.get (find_from text ("\"" ^ section ^ "\"") 0) in
  let stop =
    match find_from text ("\"" ^ until ^ "\"") start with
    | Some j -> j
    | None -> String.length text
  in
  let body = String.sub text start (stop - start) in
  let rec go i acc =
    match string_after body "name" i with
    | None -> List.rev acc
    | Some (name, j) -> (
        match string_after body "unit" j with
        | Some (unit_, k) -> go k ((name, unit_) :: acc)
        | None -> List.rev acc)
  in
  go 0 []

let benchmark = read_file "../BENCHMARK.json"
let e2e_spec = section_metrics benchmark "end_to_end" ~until:"per_layer"
let layer_spec = section_metrics benchmark "per_layer" ~until:"run_seconds"

let names ms = List.map (fun (m : Report.metric) -> (m.Report.name, m.Report.unit_)) ms
let pair = Alcotest.(list (pair string string))
let sorted l = List.sort compare l

(* ---- runs ---- *)

let run name ~traced =
  let f = List.assoc name Workloads.all in
  f { Workloads.seed = 7; seconds = 0.01; traced; setup_only = false; spans_path = None }

let simtime (r : Report.result) =
  List.filter_map
    (fun (m : Report.metric) ->
      if m.Report.kind = Report.Sim then Some (m.Report.name, Int64.bits_of_float m.Report.value)
      else None)
    (r.Report.e2e @ r.Report.extra)

let check_workload name () =
  let plain = run name ~traced:false in
  let traced = run name ~traced:true in
  List.iter
    (fun (r : Report.result) ->
      Alcotest.(check (list string)) "correctness checks pass" [] r.Report.violations;
      Alcotest.(check bool) "attempted at least one" true (r.Report.attempted >= 1))
    [ plain; traced ];
  Alcotest.check pair "end-to-end metrics match BENCHMARK.json" (sorted e2e_spec)
    (sorted (names plain.Report.e2e));
  Alcotest.check pair "per-layer metrics match BENCHMARK.json" (sorted layer_spec)
    (sorted (("trace.overhead_pct", "%") :: names (traced.Report.layers @ traced.Report.extra)));
  List.iter
    (fun (m : Report.metric) ->
      Alcotest.(check bool) (m.Report.name ^ " is finite and never 0") true
        (Float.is_finite m.Report.value && m.Report.value > 0.0))
    plain.Report.e2e;
  Alcotest.(check (list (pair string int64)))
    "traced and untraced simulated-time metrics are bit-identical" (simtime plain)
    (simtime traced)

let () =
  Alcotest.run "perfbench"
    [
      ( "workloads",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Slow (check_workload name))
          Workloads.all );
    ]
