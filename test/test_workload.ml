(* Tests for the workload generators: row codec, Zipf, YCSB++, TPC-C
   (including consistency conditions after concurrent runs and across a
   Rolis failover). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* ---------- Row ---------- *)

let row_roundtrip_qcheck =
  QCheck.Test.make ~name:"row pack/unpack roundtrip" ~count:300
    QCheck.(list (string_of_size Gen.(0 -- 40)))
    (fun fields -> Workload.Row.unpack (Workload.Row.pack fields) = fields)

let test_row_field_ops () =
  let row = Workload.Row.pack [ "a"; "42"; "c" ] in
  Alcotest.(check string) "field" "42" (Workload.Row.field row 1);
  check_int "to_int" 42 (Workload.Row.to_int (Workload.Row.field row 1));
  let row' = Workload.Row.set_field row 1 "43" in
  check_int "set_field" 43 (Workload.Row.to_int (Workload.Row.field row' 1));
  Alcotest.(check string) "others untouched" "c" (Workload.Row.field row' 2)

(* In-place access against the list reference: [field], [int_at] and
   [set_field] must agree with [List.nth (unpack r)] and
   [pack (List.mapi ...)] on any row. *)
let row_field_gen =
  let open QCheck.Gen in
  oneof
    [
      map string_of_int int;
      map string_of_int (int_range (-1000) 1000);
      map string_of_int (oneofl [ min_int; max_int; 0 ]);
      oneofl [ ""; "-"; "-0"; "007"; "+5"; "0x1f"; "1_0"; "12:3"; "9999999999999999999" ];
      string_size (0 -- 12);
    ]

let row_access_qcheck =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 8) row_field_gen >>= fun fields ->
      pair (return fields)
        (pair (int_bound (List.length fields - 1)) (string_size (0 -- 14))))
  in
  let print (fields, (i, v)) =
    Printf.sprintf "fields=[%s] i=%d v=%S"
      (String.concat "; " (List.map (Printf.sprintf "%S") fields))
      i v
  in
  QCheck.Test.make ~name:"row field/int_at/set_field equal the list reference" ~count:1000
    (QCheck.make ~print gen)
    (fun (fields, (i, v)) ->
      let open Workload.Row in
      let r = pack fields in
      let expect = List.nth (unpack r) i in
      let as_int f = match f () with n -> Ok n | exception Failure _ -> Error () in
      field r i = expect
      && as_int (fun () -> int_at r i) = as_int (fun () -> to_int expect)
      && set_field r i v = pack (List.mapi (fun j f -> if j = i then v else f) fields))

let test_row_malformed () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let good = Workload.Row.pack [ "ab" ] in
  List.iter
    (fun hdr ->
      let first = hdr ^ "abc" ^ good and second = good ^ hdr ^ "abc" in
      raises ("unpack " ^ hdr) (fun () -> Workload.Row.unpack first);
      raises ("unpack 2nd " ^ hdr) (fun () -> Workload.Row.unpack second);
      raises ("field " ^ hdr) (fun () -> Workload.Row.field first 0);
      raises ("field 2nd " ^ hdr) (fun () -> Workload.Row.field second 1);
      raises ("int_at " ^ hdr) (fun () -> Workload.Row.int_at first 0);
      raises ("set_field " ^ hdr) (fun () -> Workload.Row.set_field first 0 "z"))
    [ "0x3:"; "+3:"; "0_3:"; "-1:"; " 3:"; ":"; "a:"; "9:"; "99999999999999999999999:" ];
  raises "no separator" (fun () -> Workload.Row.unpack "3");
  raises "field past the end" (fun () -> Workload.Row.field good 1);
  raises "negative index" (fun () -> Workload.Row.field good (-1));
  raises "set_field past the end" (fun () -> Workload.Row.set_field good 1 "z")

(* ---------- Zipf ---------- *)

let test_zipf_bounds_and_skew () =
  let z = Workload.Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Sim.Rng.create 7L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Workload.Zipf.next z rng in
    check_bool "in range" true (v >= 0 && v < 1000);
    counts.(v) <- counts.(v) + 1
  done;
  (* Head keys dominate the tail under theta = 0.99. *)
  let head = counts.(0) + counts.(1) + counts.(2) in
  let tail = counts.(997) + counts.(998) + counts.(999) in
  check_bool "skewed towards head" true (head > 50 * max tail 1)

(* ---------- helpers: a standalone DB in a simulation ---------- *)

let in_sim f =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:8 ~efficiency:(fun ~active:_ -> 1.0) () in
  let db = Silo.Db.create eng cpu () in
  let finished = ref false in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        f eng db;
        finished := true)
  in
  Sim.Engine.run eng;
  check_bool "sim body completed" true !finished

(* ---------- YCSB ---------- *)

let test_ycsb_setup_and_run () =
  let p = { Workload.Ycsb.default with Workload.Ycsb.keys = 1_000 } in
  in_sim (fun eng db ->
      Workload.Ycsb.setup p db;
      check_int "table populated" 1_000
        (Store.Table.count (Silo.Db.table db Workload.Ycsb.table_name));
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      for _ = 1 to 200 do
        let r = Silo.Db.run db ~worker:0 (Workload.Ycsb.txn_body p db rng) in
        check_bool "committed" true (r.Silo.Db.tid <> None);
        check_int "4 ops read" 4 r.Silo.Db.reads
      done;
      let st = Silo.Db.stats db in
      check_int "200 commits" 200 st.Silo.Db.commits)

(* ---------- TPC-C ---------- *)

let small_tpcc =
  {
    Workload.Tpcc.default with
    Workload.Tpcc.warehouses = 2;
    items = 500;
    customers_per_district = 30;
    init_orders_per_district = 30;
  }

let test_tpcc_setup_consistent () =
  in_sim (fun _eng db ->
      Workload.Tpcc.setup small_tpcc db;
      Alcotest.(check (list string))
        "fresh load is consistent" []
        (Workload.Tpcc.consistency_errors small_tpcc db))

let test_tpcc_each_kind_runs () =
  in_sim (fun eng db ->
      Workload.Tpcc.setup small_tpcc db;
      let st = Workload.Tpcc.make_state small_tpcc db in
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      List.iter
        (fun kind ->
          (* Several instances of each kind, to hit by-name paths etc. *)
          for _ = 1 to 25 do
            let r =
              Silo.Db.run db ~worker:0
                (Workload.Tpcc.run_kind st rng ~worker:0 ~nworkers:1 kind)
            in
            match kind with
            | Workload.Tpcc.New_order ->
                (* Commits or 1% user rollback; both are fine. *)
                ()
            | _ -> check_bool (Workload.Tpcc.kind_name kind ^ " commits") true (r.Silo.Db.tid <> None)
          done)
        Workload.Tpcc.all_kinds;
      Alcotest.(check (list string))
        "consistent after every kind" []
        (Workload.Tpcc.consistency_errors small_tpcc db))

let test_tpcc_concurrent_mix_consistent () =
  in_sim (fun eng db ->
      Workload.Tpcc.setup small_tpcc db;
      let st = Workload.Tpcc.make_state small_tpcc db in
      for w = 0 to 3 do
        let rng = Sim.Rng.split (Sim.Engine.rng eng) in
        let _p =
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 150 do
                let kind = Workload.Tpcc.pick_kind small_tpcc rng in
                ignore
                  (Silo.Db.run db ~worker:w
                     (Workload.Tpcc.run_kind st rng ~worker:w ~nworkers:4 kind))
              done)
        in
        ()
      done;
      (* Let the spawned workers finish before checking. *)
      Sim.Engine.sleep (10 * s);
      Alcotest.(check (list string))
        "consistent after concurrent mix" []
        (Workload.Tpcc.consistency_errors small_tpcc db))

let test_tpcc_skewed_contention () =
  (* FastIds off + one district-heavy mix: conflict aborts must appear. *)
  let p = { small_tpcc with Workload.Tpcc.warehouses = 1; fast_ids = false;
            mix = { new_order = 100; payment = 0; order_status = 0; stock_level = 0; delivery = 0 } } in
  in_sim (fun eng db ->
      Workload.Tpcc.setup p db;
      let st = Workload.Tpcc.make_state p db in
      for w = 0 to 7 do
        let rng = Sim.Rng.split (Sim.Engine.rng eng) in
        let _p =
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 50 do
                ignore
                  (Silo.Db.run db ~worker:w
                     (Workload.Tpcc.run_kind st rng ~worker:w ~nworkers:8
                        Workload.Tpcc.New_order))
              done)
        in
        ()
      done;
      Sim.Engine.sleep (10 * s);
      let stats = Silo.Db.stats db in
      check_bool "district counter contention causes conflicts" true
        (stats.Silo.Db.conflict_aborts > 0);
      Alcotest.(check (list string))
        "still consistent" []
        (Workload.Tpcc.consistency_errors p db))

(* The heavyweight end-to-end check: TPC-C on a Rolis cluster, crash the
   leader, and require full TPC-C consistency on the new leader. *)
let test_tpcc_on_cluster_with_failover () =
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers = 4;
      cores = 8;
      batch_size = 20;
      costs = { Silo.Costs.default with Silo.Costs.txn_begin_ns = 100_000 };
      heartbeat_interval = 50 * ms;
      election_timeout = 300 * ms;
    }
  in
  let cluster = Rolis.Cluster.create cfg (Workload.Tpcc.app small_tpcc) in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (800 * ms) (fun () -> Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(3 * s) ();
  check_bool "released transactions" true (Rolis.Cluster.released cluster > 50);
  match Rolis.Cluster.leader cluster with
  | None -> Alcotest.fail "no leader after failover"
  | Some r ->
      Alcotest.(check (list string))
        "TPC-C consistent on the new leader" []
        (Workload.Tpcc.consistency_errors small_tpcc (Rolis.Replica.db r))

let test_zipf_low_theta_near_uniform () =
  (* theta -> 0 approaches uniform: the head must not dominate. *)
  let z = Workload.Zipf.create ~n:100 ~theta:0.01 in
  let rng = Sim.Rng.create 3L in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let v = Workload.Zipf.next z rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* Every cell within 3x of the uniform expectation (500). *)
  Array.iteri
    (fun i c ->
      if c > 1_500 then Alcotest.failf "cell %d overrepresented (%d)" i c)
    counts

let test_ycsb_standard_mixes () =
  check_bool "A is skewed" true (Workload.Ycsb.workload_a.Workload.Ycsb.theta <> None);
  check_bool "B mostly reads" true (Workload.Ycsb.workload_b.Workload.Ycsb.read_ratio > 0.9);
  check_bool "C read-only" true (Workload.Ycsb.workload_c.Workload.Ycsb.read_ratio = 1.0);
  (* A skewed run produces conflict aborts that the uniform run avoids. *)
  let run p =
    let r =
      Baselines.Silo_only.run ~cores:8 ~workers:8 ~duration:(100 * ms)
        ~app:(Workload.Ycsb.app { p with Workload.Ycsb.keys = 2_000 })
        ()
    in
    r.Baselines.Silo_only.conflict_aborts
  in
  let skewed = run { Workload.Ycsb.workload_a with Workload.Ycsb.theta = Some 0.99 } in
  let uniform = run Workload.Ycsb.default in
  check_bool "skew raises conflicts" true (skewed > uniform)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "row",
        [
          Alcotest.test_case "field ops" `Quick test_row_field_ops;
          Alcotest.test_case "malformed headers" `Quick test_row_malformed;
          qc row_roundtrip_qcheck;
          qc row_access_qcheck;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds and skew" `Quick test_zipf_bounds_and_skew;
          Alcotest.test_case "low theta near uniform" `Quick
            test_zipf_low_theta_near_uniform;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "setup and run" `Quick test_ycsb_setup_and_run;
          Alcotest.test_case "standard mixes" `Quick test_ycsb_standard_mixes;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "fresh load consistent" `Quick test_tpcc_setup_consistent;
          Alcotest.test_case "each kind runs" `Quick test_tpcc_each_kind_runs;
          Alcotest.test_case "concurrent mix consistent" `Quick
            test_tpcc_concurrent_mix_consistent;
          Alcotest.test_case "skewed contention" `Quick test_tpcc_skewed_contention;
          Alcotest.test_case "cluster failover consistency" `Slow
            test_tpcc_on_cluster_with_failover;
        ] );
    ]
