(* Bechamel micro-benchmarks of the core primitives every experiment
   leans on: B+tree point ops, order-preserving key encoding, row field
   access, RNG draws, log-entry (de)serialization, watermark computation,
   replay compare-and-swap, and whole TPC-C transaction bodies. These are
   wall-clock measurements of the implementation itself (not virtual
   time). *)

open Bechamel
open Toolkit

(* Inputs are drawn before timing starts and cycled through, so each
   entry times the primitive alone — not [Printf.sprintf] or RNG draws. *)
let ninputs = 4096
let cycle inputs =
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land (ninputs - 1);
    inputs.(!i)

let random_keys seed =
  let rng = Sim.Rng.create seed in
  Array.init ninputs (fun _ -> Printf.sprintf "%012d" (Sim.Rng.int rng 10_000_000))

let prepared_tree n =
  let t = Store.Btree.create () in
  let rng = Sim.Rng.create 11L in
  for _ = 1 to n do
    ignore (Store.Btree.insert t (Printf.sprintf "%012d" (Sim.Rng.int rng 10_000_000)) 0)
  done;
  t

let test_btree_find =
  let tree = prepared_tree 100_000 in
  let next = cycle (random_keys 3L) in
  ("btree.find (100k keys)", fun () -> ignore (Store.Btree.find tree (next ())))

let test_btree_insert_remove =
  let tree = prepared_tree 100_000 in
  let next = cycle (random_keys 5L) in
  ( "btree.insert+remove",
    fun () ->
      let k = next () in
      ignore (Store.Btree.insert tree k 1);
      ignore (Store.Btree.remove tree k) )

let test_keycodec =
  let rng = Sim.Rng.create 7L in
  let next =
    cycle
      (Array.init ninputs (fun _ ->
           [
             Store.Keycodec.I (Sim.Rng.int rng 100);
             Store.Keycodec.I (Sim.Rng.int rng 10);
             Store.Keycodec.I (Sim.Rng.int rng 1_000_000);
           ]))
  in
  ("keycodec.encode (3 components)", fun () -> ignore (Store.Keycodec.encode (next ())))

(* A TPC-C customer row: balance, ytd, payment and delivery counts first. *)
let customer_row =
  Workload.Row.pack
    [ "-1000"; "1000"; "1"; "0"; "BARBARBAR"; "first-name-x"; "GC"; Workload.Row.pad 40 ]

let test_row_int_at =
  ("row.int_at (customer field 2)", fun () -> ignore (Workload.Row.int_at customer_row 2))

let test_row_set_field =
  ( "row.set_field (customer field 2)",
    fun () -> ignore (Workload.Row.set_field customer_row 2 "2") )

let test_rng_int =
  let rng = Sim.Rng.create 13L in
  ("rng.int", fun () -> ignore (Sim.Rng.int rng 1000))

(* One TPC-C body per kind against a loaded database, executed into a
   reset transaction context and never committed, so the tables stay as
   loaded. This is the host time a worker spends per transaction before
   commit, split by kind. *)
let tpcc_bodies () =
  let p = Workload.Tpcc.with_warehouses Workload.Tpcc.default 4 in
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:4 () in
  let db = Silo.Db.create eng cpu () in
  Workload.Tpcc.setup p db;
  let st = Workload.Tpcc.make_state p db in
  let rng = Sim.Rng.create 17L in
  let txn = Silo.Txn.create ~worker:0 ~costs:(Silo.Db.costs db) in
  List.map
    (fun kind ->
      ( "tpcc.body " ^ Workload.Tpcc.kind_name kind,
        fun () ->
          Silo.Txn.reset txn;
          try Workload.Tpcc.run_kind st rng ~worker:0 ~nworkers:4 kind txn
          with Silo.Txn.Abort -> () ))
    Workload.Tpcc.all_kinds

let sample_entry =
  let writes =
    List.init 10 (fun i ->
        { Store.Wire.table = i; key = Printf.sprintf "key-%06d" i; value = Some (String.make 60 'v') })
  in
  Store.Wire.make_entry ~epoch:1
    (List.init 100 (fun i -> { Store.Wire.ts = i; req = None; decision = None; writes }))

let test_wire_encode =
  ("wire.encode (100-txn entry)", fun () -> ignore (Store.Wire.encode sample_entry))

let test_wire_decode =
  let encoded = Store.Wire.encode sample_entry in
  ("wire.decode (100-txn entry)", fun () -> ignore (Store.Wire.decode encoded))

let test_watermark =
  let wm = Rolis.Watermark.create ~streams:32 in
  for s = 0 to 31 do
    Rolis.Watermark.note_durable wm ~stream:s ~epoch:1 ~ts:(1000 + s)
  done;
  ("watermark.compute (32 streams)", fun () -> ignore (Rolis.Watermark.compute wm ~epoch:1))

let test_record_cas =
  let r = Store.Record.make "value" in
  let ts = ref 0 in
  ( "record.cas_apply",
    fun () ->
      incr ts;
      ignore (Store.Record.cas_apply r ~epoch:1 ~ts:!ts ~value:(Some "value")) )

(* Minor-heap words per call, counted with [Gc.minor_words] around a
   plain loop: Bechamel's allocation instance reads [Gc.quick_stat],
   which OCaml 5 refreshes only at collections. *)
let words_per_op f =
  let n = 200 in
  for _ = 1 to 10 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let run ~quick =
  Common.header "Micro-benchmarks (Bechamel, wall-clock)"
    "Per-operation cost of the primitives under every experiment.";
  let quota = Time.second (if quick then 0.25 else 0.5) in
  (* No compaction between samples: with the loaded trees and TPC-C
     database on the heap, each one would eat most of the quota. *)
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None ~stabilize:false ~compaction:false () in
  let entries =
    [
      test_btree_find;
      test_btree_insert_remove;
      test_keycodec;
      test_row_int_at;
      test_row_set_field;
      test_rng_int;
      test_wire_encode;
      test_wire_decode;
      test_watermark;
      test_record_cas;
    ]
    @ tpcc_bodies ()
  in
  let tests =
    Test.make_grouped ~name:"core"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) entries)
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let pts =
    List.map
      (fun (name, f) ->
        let est = Hashtbl.find_opt results ("core/" ^ name) in
        let ns =
          match Option.bind est Analyze.OLS.estimates with Some (x :: _) -> x | Some [] | None -> nan
        in
        let r2 = match Option.bind est Analyze.OLS.r_square with Some r -> r | None -> nan in
        let words = words_per_op f in
        Printf.printf "  %-36s %10.1f ns/op  (r²=%.3f) %8.1f words/op\n" name ns r2 words;
        let guard f = if Float.is_nan f then [] else [ ("ns_per_op", f) ] in
        Common.point ~series:("core/" ^ name) ~x:0.0 (guard ns @ [ ("words_per_op", words) ]))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)
  in
  (* Wall-clock measurements: not deterministic, excluded from the CI
     regression gate ([gated = false]). *)
  Common.emit ~gated:false ~fig:"micro" ~title:"Bechamel micro-benchmarks"
    ~x_label:"n/a" pts;
  Printf.printf "%!"
