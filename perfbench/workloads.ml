(* The four benchmark workloads. Each builds its deployment from the seed,
   warms up, measures one window of virtual time whose length is fixed by
   the workload and [--seconds] (never by host speed, so every
   simulated-time figure is exact for a seed), drains to a quiescent
   point, runs its correctness checks and reports. Why each workload
   exists and which layer each figure measures is in README.md. *)

open Report

let ms = Sim.Engine.ms
let s = Sim.Engine.s

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  setup_only : bool;
  spans_path : string option;  (** where a traced run writes its spans *)
}

let fl = float_of_int
let ratio a b = if b = 0 then 0.0 else fl a /. fl b
let ms_of_ns ns = fl ns /. 1e6

let hist_ms h q =
  if Sim.Metrics.Hist.count h = 0 then 0.0
  else ms_of_ns (Sim.Metrics.Hist.quantile h q)

(* Simulated-time length of the window: [per_s] virtual ns per requested
   host second, sized so the window took roughly [--seconds] of host time
   on a 2-vCPU x86 container when the benchmark was introduced (tpcc_exec
   a little more: its p50 depends on the seed, and a longer window narrows
   the spread between seeds). A faster simulator finishes the same window
   sooner; it never measures a different one. *)
let window_ns o ~per_s ~min_ns = max min_ns (int_of_float (o.seconds *. fl per_s))

let tune o (cfg : Rolis.Config.t) =
  {
    cfg with
    Rolis.Config.seed = Int64.of_int o.seed;
    (* 1 in 16 transactions traced: enough stage samples that every stage
       p99 has at least 10 beyond it on tpcc_exec, ycsb_rw and shard_2pc. *)
    trace_sample_interval = (if o.traced then 16 else 0);
    archive_entries = true;
  }

(* A per-generator RNG fed from the seed alone, independent of the
   engine's root RNG. *)
let gen_rng o salt = Sim.Rng.create (Int64.of_int ((o.seed * 1_000_003) + salt))

(* ---- drain ---- *)

let alive_followers c =
  Array.to_list (Rolis.Cluster.replicas c)
  |> List.filter (fun r -> Rolis.Replica.is_alive r && not (Rolis.Replica.is_serving r))

let backlog clusters =
  Array.fold_left
    (fun a c ->
      List.fold_left (fun a r -> a + Rolis.Replica.replay_backlog r) a (alive_followers c))
    0 clusters

(* Let replication, release and replay run dry after the workload has
   stopped: at least [min] virtual ns, then until no alive follower has a
   replay backlog (bounded). *)
let drain eng clusters ~min =
  Sim.Engine.run ~until:(Sim.Engine.now eng + min) eng;
  let tries = ref 0 in
  while backlog clusters > 0 && !tries < 50 do
    Sim.Engine.run ~until:(Sim.Engine.now eng + (100 * ms)) eng;
    incr tries
  done

(* ---- window snapshots ---- *)

type snap = {
  at : int;
  host : int;
  alloc : float;
  msgs : int;
  bytes : int;
  busy : float array array;  (** per cluster, per replica *)
  db : Silo.Db.stats array array;
  retx : int;
  coalesced : int;
  backlog : int;  (** replay backlog summed over alive followers *)
}

let snapshot clusters =
  let reps c = Rolis.Cluster.replicas c in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 clusters in
  let stream_sum f =
    sum (fun c ->
        Array.fold_left
          (fun a r ->
            Array.fold_left (fun a st -> a + f (Paxos.Stream.stats st)) a (Rolis.Replica.streams r))
          0 (reps c))
  in
  {
    at = Sim.Engine.now (Rolis.Cluster.engine clusters.(0));
    host = Probe.now_ns ();
    alloc = Probe.alloc_words ();
    msgs = sum (fun c -> Sim.Net.messages_sent (Rolis.Cluster.network c));
    bytes = sum (fun c -> Sim.Net.bytes_sent (Rolis.Cluster.network c));
    busy =
      Array.map
        (fun c -> Array.map (fun r -> Sim.Cpu.busy_ns (Rolis.Replica.cpu r)) (reps c))
        clusters;
    db =
      Array.map (fun c -> Array.map (fun r -> Silo.Db.stats (Rolis.Replica.db r)) (reps c)) clusters;
    retx = stream_sum (fun st -> st.Paxos.Stream.retransmits);
    coalesced = stream_sum (fun st -> st.Paxos.Stream.coalesced);
    backlog = backlog clusters;
  }

(* ---- durable-entry observer (the [on_durable] hook, traced runs) ---- *)

type durable = {
  mutable open_ : bool;
  mutable entries : int;  (** distinct (group, stream, idx) slots *)
  mutable wire_bytes : int;
  mutable wire_txns : int;
  seen : (int * int * int, unit) Hashtbl.t;
}

let durable () =
  { open_ = false; entries = 0; wire_bytes = 0; wire_txns = 0; seen = Hashtbl.create 4096 }

let observe d ~group ~stream ~idx (e : Store.Wire.entry) =
  if d.open_ && not (Hashtbl.mem d.seen (group, stream, idx)) then begin
    Hashtbl.add d.seen (group, stream, idx) ();
    d.entries <- d.entries + 1;
    d.wire_bytes <- d.wire_bytes + Store.Wire.byte_size e;
    d.wire_txns <- d.wire_txns + List.length e.Store.Wire.txns
  end

let hook p d =
  if p.Probe.traced then
    Some (fun ~replica:_ ~stream ~idx e -> observe d ~group:0 ~stream ~idx e)
  else None

(* ---- client-side accounting shared by the session-driven workloads ---- *)

type reqs = {
  mutable attempted : int;  (** requests issued (due, for open loop) in the window *)
  mutable acked : int;  (** acked with the ack inside the window *)
  mutable troubled : int;  (** refused, timed out, parked or abandoned at least once *)
  mutable abandoned : int;  (** never acked (read sessions give up after a park) *)
  lat : Sim.Metrics.Hist.t;  (** requests acked inside the window *)
  late : Sim.Metrics.Hist.t;  (** open loop: issue time minus due time *)
}

let reqs () =
  {
    attempted = 0;
    acked = 0;
    troubled = 0;
    abandoned = 0;
    lat = Sim.Metrics.Hist.create ();
    late = Sim.Metrics.Hist.create ();
  }

let session_troubles c =
  Rolis.Client.timeouts c + Rolis.Client.busy_replies c + Rolis.Client.parked c

let sessions_sum sessions f = Array.fold_left (fun a c -> a + f c) 0 sessions

(* ---- stage breakdown ---- *)

let stage c name which =
  match
    List.find_opt (fun (st, _, _, _, _) -> st = name) (Rolis.Cluster.stage_breakdown c)
  with
  | None -> 0.0
  | Some (_, _, p50, _, p99) -> ms_of_ns (match which with `P50 -> p50 | `P99 -> p99)

let violations_of tag vs =
  List.map (fun v -> Format.asprintf "%s: %a" tag Rolis.Check.pp_violation v) vs

(* ---- the common report ---- *)

type window = {
  o : opts;
  p : Probe.t;
  clusters : Rolis.Cluster.t array;
  s0 : snap;
  s1 : snap;
  events : int;
  speed : Probe.speed;  (** machine-speed probe slices run in the window *)
  setup_s : float;
  heap_mb : float;
  committed : int;  (** transactions committed in the window *)
  reads : int;  (** reads served to read sessions in the window *)
  d : durable;
}

let window_secs w = fl (w.s1.at - w.s0.at) /. 1e9
(* Host seconds the simulator spent in the window (probe slices excluded),
   as measured and as normalized to the reference machine speed. *)
let wall_secs w = fl (w.s1.host - w.s0.host - w.speed.Probe.ns) /. 1e9
let host_secs w = Probe.normalize w.speed (wall_secs w)

(* The serving leader of each group at window close. *)
let leaders w = List.filter_map Rolis.Cluster.leader (Array.to_list w.clusters)

let cpu_util w ~leader =
  let utils = ref [] in
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun ri r ->
          let is_leader = Rolis.Replica.is_serving r in
          if Rolis.Replica.is_alive r && is_leader = leader then begin
            let busy = w.s1.busy.(ci).(ri) -. w.s0.busy.(ci).(ri) in
            let cap = fl (Sim.Cpu.cores (Rolis.Replica.cpu r)) *. fl (w.s1.at - w.s0.at) in
            utils := (busy /. cap) :: !utils
          end)
        (Rolis.Cluster.replicas c))
    w.clusters;
  match !utils with [] -> 0.0 | us -> List.fold_left ( +. ) 0.0 us /. fl (List.length us)

let db_delta w =
  let commits = ref 0 and conflicts = ref 0 and user = ref 0 in
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun ri _ ->
          let a = w.s0.db.(ci).(ri) and b = w.s1.db.(ci).(ri) in
          commits := !commits + b.Silo.Db.commits - a.Silo.Db.commits;
          conflicts := !conflicts + b.Silo.Db.conflict_aborts - a.Silo.Db.conflict_aborts;
          user := !user + b.Silo.Db.user_aborts - a.Silo.Db.user_aborts)
        (Rolis.Cluster.replicas c))
    w.clusters;
  (!commits, !conflicts, !user)

let sum_clusters w f = Array.fold_left (fun a c -> a + f c) 0 w.clusters

(* The gated end-to-end metrics every workload reports. *)
let e2e w ~lat =
  let secs = window_secs w in
  [
    sim "commit_tput_tps" "txn/s" (fl w.committed /. secs);
    sim "commit_p50_ms" "ms" (hist_ms lat 0.5);
    sim "commit_p99_ms" "ms" (hist_ms lat 0.99);
    host "host_txn_per_s" "txn/s" (fl (w.committed + w.reads) /. host_secs w);
    host "setup_s" "s" w.setup_s;
    host "heap_peak_mb" "MB" w.heap_mb;
  ]

(* Workload-specific end-to-end figures; every run reports the full list
   (zero where the workload does not exercise the path). *)
type extra = {
  x_cross : Sim.Metrics.Hist.t option;
  x_reads : reqs option;
  x_gap_ms : float;
  x_failed_ratio : float;
}

let no_extra = { x_cross = None; x_reads = None; x_gap_ms = 0.0; x_failed_ratio = 0.0 }

let extras w x =
  let secs = window_secs w in
  let cross q = match x.x_cross with Some h -> hist_ms h q | None -> 0.0 in
  [
    sim "shard.cross_p50_ms" "ms" (cross 0.5);
    sim "shard.cross_p99_ms" "ms" (cross 0.99);
    sim "reads.tput_rps" "reads/s"
      (match x.x_reads with Some r -> fl r.acked /. secs | None -> 0.0);
    sim "reads.p99_ms" "ms" (match x.x_reads with Some r -> hist_ms r.lat 0.99 | None -> 0.0);
    sim "failover.gap_ms" "ms" x.x_gap_ms;
    sim "client.failed_ratio" "ratio" x.x_failed_ratio;
  ]

(* The per-layer metrics, in BENCHMARK.json order. Only meaningful from a
   traced run (host closure timings, stage spans and replay-lag samples
   exist only there); [specific] supplies the client/shard/failover
   figures the workload computes itself. *)
let layers w ~stage_cluster ~specific =
  let secs = window_secs w in
  let c0 = stage_cluster in
  let st name which = stage c0 name which in
  let commits, conflicts, user = db_delta w in
  let attempts = commits + conflicts + user in
  let released = sum_clusters w Rolis.Cluster.released in
  let flushed = sum_clusters w Rolis.Cluster.entries_flushed in
  let lag = Rolis.Cluster.replay_lag c0 in
  let stale = Rolis.Cluster.read_staleness c0 in
  let served = sum_clusters w Rolis.Cluster.reads_served in
  let misses = sum_clusters w Rolis.Cluster.read_misses in
  let leader_db_mb =
    List.fold_left
      (fun a r -> a +. (fl (Silo.Db.total_bytes (Rolis.Replica.db r)) /. 1e6))
      0.0 (leaders w)
  in
  let per_txn v = if w.committed = 0 then 0.0 else v /. fl w.committed in
  let base =
    [
      host "sim.events" "count" (fl w.events);
      host "sim.events_per_host_s" "1/s" (fl w.events /. host_secs w);
      host "host.wall_txn_per_s" "txn/s" (fl (w.committed + w.reads) /. wall_secs w);
      host "host.machine_speed" "ratio" (wall_secs w /. host_secs w);
      sim "sim.leader_cpu_util" "ratio" (cpu_util w ~leader:true);
      sim "sim.follower_cpu_util" "ratio" (cpu_util w ~leader:false);
      sim "sim.net_msgs_per_txn" "count" (per_txn (fl (w.s1.msgs - w.s0.msgs)));
      sim "sim.net_bytes_per_txn" "B" (per_txn (fl (w.s1.bytes - w.s0.bytes)));
      host "silo.body_host_us_mean" "us" (Probe.mean_us w.p.Probe.body);
      host "workload.gen_host_us_mean" "us" (Probe.mean_us w.p.Probe.gen);
      host "silo.read_host_us_mean" "us" (Probe.mean_us w.p.Probe.read);
      sim "silo.attempts_per_commit" "ratio" (ratio attempts commits);
      sim "silo.conflict_abort_ratio" "ratio" (ratio conflicts attempts);
      sim "stage.execute_p50_ms" "ms" (st "execute" `P50);
      sim "stage.serialize_p50_ms" "ms" (st "serialize" `P50);
      sim "store.wire_bytes_per_txn" "B" (ratio w.d.wire_bytes w.d.wire_txns);
      host "store.db_mb" "MB" leader_db_mb;
      sim "store.journal_mb" "MB" (fl (sum_clusters w Rolis.Cluster.journal_bytes_total) /. 1e6);
      host "host.alloc_words_per_txn" "words" (per_txn (w.s1.alloc -. w.s0.alloc));
      sim "batcher.txns_per_entry" "count" (ratio released flushed);
      sim "batcher.deadline_flushes" "count" (fl (sum_clusters w Rolis.Cluster.deadline_flushes));
      sim "stage.batch_submit_p50_ms" "ms" (st "batch_submit" `P50);
      sim "stage.batch_submit_p99_ms" "ms" (st "batch_submit" `P99);
      sim "stage.replicate_durable_p50_ms" "ms" (st "replicate_durable" `P50);
      sim "stage.replicate_durable_p99_ms" "ms" (st "replicate_durable" `P99);
      sim "paxos.durable_entries" "count" (fl w.d.entries);
      sim "paxos.retransmits" "count" (fl (w.s1.retx - w.s0.retx));
      sim "paxos.coalesced" "count" (fl (w.s1.coalesced - w.s0.coalesced));
      sim "stage.under_watermark_p50_ms" "ms" (st "under_watermark" `P50);
      sim "stage.under_watermark_p99_ms" "ms" (st "under_watermark" `P99);
      sim "watermark.event_releases" "count" (fl (sum_clusters w Rolis.Cluster.event_releases));
      sim "replay.txns_per_s" "txn/s" (fl (sum_clusters w Rolis.Cluster.replayed_txns) /. secs);
      sim "replay.lag_p50_ms" "ms" (match lag with Some (_, p50, _) -> ms_of_ns p50 | None -> 0.0);
      sim "replay.lag_p95_ms" "ms" (match lag with Some (_, _, p95) -> ms_of_ns p95 | None -> 0.0);
      sim "replay.backlog_end" "count" (fl w.s1.backlog);
      sim "reads.miss_ratio" "ratio" (ratio misses (served + misses));
      sim "reads.parked" "count" (fl (sum_clusters w Rolis.Cluster.reads_parked));
      sim "reads.redirected" "count" (fl (sum_clusters w Rolis.Cluster.reads_redirected));
      sim "reads.staleness_p50_ms" "ms"
        (match stale with Some (_, p50, _) -> ms_of_ns p50 | None -> 0.0);
      sim "reads.staleness_p95_ms" "ms"
        (match stale with Some (_, _, p95) -> ms_of_ns p95 | None -> 0.0);
      sim "stage.read_serve_p50_ms" "ms" (st "read_serve" `P50);
      sim "reads.audit_skipped" "count" (fl (sum_clusters w Rolis.Cluster.read_audit_skipped));
    ]
  in
  base @ specific @ [ host "setup.load_s" "s" (Probe.total_s w.p.Probe.setup) ]

(* Session counters are cumulative: the window's share is the difference
   between the sums at close and at open. *)
let counters sessions =
  Array.map
    (fun f -> sessions_sum sessions f)
    [|
      Rolis.Client.retries;
      Rolis.Client.timeouts;
      Rolis.Client.busy_replies;
      Rolis.Client.redirects;
      Rolis.Client.parked;
    |]

(* Client, shard and failover layer figures: zero unless supplied.
   [sessions] is the pair of {!counters} at window open and close. *)
let client_layers ?sessions ?(late = Sim.Metrics.Hist.create ()) ?(due_in_outage = 0) ?reqs
    ?(park_p99 = 0.0) () =
  let sum i =
    match sessions with Some (c0, c1) -> fl (c1.(i) - c0.(i)) | None -> 0.0
  in
  let attempted = match reqs with Some r -> r.attempted | None -> 0 in
  [
    sim "client.retries_per_req" "count"
      (if attempted = 0 then 0.0 else sum 0 /. fl attempted);
    sim "client.timeouts" "count" (sum 1);
    sim "client.busy" "count" (sum 2);
    sim "client.redirects" "count" (sum 3);
    sim "client.parked" "count" (sum 4);
    sim "stage.client_park_p99_ms" "ms" park_p99;
    sim "client.gen_late_ms_p99" "ms" (hist_ms late 0.99);
    sim "client.due_in_outage" "count" (fl due_in_outage);
  ]

let shard_layers ?dep () =
  match dep with
  | None ->
      [
        sim "shard.prepares_per_cross" "ratio" 0.0;
        sim "shard.cross_abort_ratio" "ratio" 0.0;
        sim "shard.client_retries" "count" 0.0;
        sim "shard.tput_imbalance" "ratio" 0.0;
      ]
  | Some dep ->
      let cross = Rolis.Shard.cross_committed dep + Rolis.Shard.cross_aborted dep in
      let rel = Array.map Rolis.Cluster.released (Rolis.Shard.clusters dep) in
      let mx = Array.fold_left max 0 rel and mn = Array.fold_left min max_int rel in
      [
        sim "shard.prepares_per_cross" "ratio" (ratio (Rolis.Shard.prepares dep) cross);
        sim "shard.cross_abort_ratio" "ratio" (ratio (Rolis.Shard.cross_aborted dep) cross);
        sim "shard.client_retries" "count" (fl (Rolis.Shard.client_retries dep));
        sim "shard.tput_imbalance" "ratio" (ratio mx mn);
      ]

let failover_layers ?(elect_ms = 0.0) ?(first_ack_ms = 0.0) () =
  [
    sim "failover.elect_ms" "ms" elect_ms;
    sim "failover.first_ack_ms" "ms" first_ack_ms;
    sim "failover.worst_gap_ms" "ms" first_ack_ms;
    sim "failover.slow_elect_share" "ratio" 0.0;
  ]

(* ---- trace output ---- *)

let write_spans p ~path ~clusters =
  let oc = open_out path in
  List.iter
    (fun (sp : Probe.span) ->
      Printf.fprintf oc
        "{\"clock\": \"host\", \"name\": %s, \"parent\": %s, \"start_ns\": %d, \"end_ns\": %d}\n"
        (json_string sp.Probe.name) (json_string sp.Probe.parent) sp.Probe.start_ns sp.Probe.stop_ns)
    (List.rev p.Probe.spans);
  Array.iteri
    (fun ci c ->
      Array.iter
        (fun r ->
          List.iter
            (fun (sp : Rolis.Trace.span) ->
              Printf.fprintf oc
                "{\"clock\": \"virtual\", \"group\": %d, \"replica\": %d, \"worker\": %d, \
                 \"ts\": %d, \"name\": %s, \"parent\": \"release\", \"start_ns\": %d, \
                 \"end_ns\": %d, \"dropped\": %b}\n"
                ci (Rolis.Replica.id r) sp.Rolis.Trace.sp_worker sp.Rolis.Trace.sp_ts
                (json_string (Rolis.Trace.stage_name sp.Rolis.Trace.sp_stage))
                sp.Rolis.Trace.sp_start sp.Rolis.Trace.sp_end sp.Rolis.Trace.sp_dropped)
            (Rolis.Trace.spans (Rolis.Replica.trace r)))
        (Rolis.Cluster.replicas c))
    clusters;
  close_out oc

(* Build the report at window close: every cluster counter keeps
   counting through the drain, so nothing may be read after it. *)
let finish w ~name ~cfg ~lat ~extra ~specific ~stage_cluster ~samples ~attempted ~failed =
  {
    workload = name;
    e2e = e2e w ~lat;
    extra = extras w extra;
    layers = layers w ~stage_cluster ~specific;
    samples =
      samples
      @ List.map
          (fun (st, n, _, _, _) -> ("stage " ^ st, n))
          (Rolis.Cluster.stage_breakdown stage_cluster);
    attempted;
    failed;
    violations = [];
    config = Report.config_dump cfg;
  }

(* Run [create] (the whole deployment build, including loading the
   database on every replica) and time it, normalized to the reference
   machine speed. *)
(* After the drain and the checks: attach the violations and, in a traced
   run, write the spans out. *)
let conclude w res violations =
  (match w.o.spans_path with
  | Some path when w.o.traced -> write_spans w.p ~path ~clusters:w.clusters
  | _ -> ());
  { res with violations }

let timed_setup p create = Probe.timed_normalized (fun () -> Probe.span p "setup" create)

exception Setup_only of float

(* ---- measurement skeleton for one engine ---- *)

let measure ~p ~eng ~clusters ~warmup ~window ~d ~on_open =
  Probe.span p "warmup" (fun () ->
      ignore (Probe.advance eng ~until:(Sim.Engine.now eng + warmup)));
  Array.iter Rolis.Cluster.reset_window clusters;
  on_open ();
  let s0 = snapshot clusters in
  Array.iter Rolis.Cluster.open_window clusters;
  d.open_ <- true;
  let speed = Probe.speed () in
  let events =
    Probe.span p "window" (fun () -> Probe.advance ~speed eng ~until:(s0.at + window))
  in
  Array.iter Rolis.Cluster.close_window clusters;
  d.open_ <- false;
  let s1 = snapshot clusters in
  (s0, s1, events, speed)

(* ===================================================================== *)
(* tpcc_exec: execution-heavy, embedded closed-loop generators           *)
(* ===================================================================== *)

let tpcc_params = Workload.Tpcc.with_warehouses Workload.Tpcc.default 4

let tpcc_exec o =
  let p = Probe.create ~traced:o.traced in
  let cfg = tune o { Rolis.Config.default with Rolis.Config.workers = 4 } in
  let stop = ref false in
  let d = durable () in
  let app = Probe.wrap_app p ~stop (Workload.Tpcc.app tpcc_params) in
  let cluster, setup_s =
    timed_setup p (fun () -> Rolis.Cluster.create ?on_durable:(hook p d) cfg app)
  in
  if o.setup_only then raise (Setup_only setup_s);
  let eng = Rolis.Cluster.engine cluster in
  let clusters = [| cluster |] in
  let s0, s1, events, speed =
    measure ~p ~eng ~clusters ~warmup:(60 * ms)
      ~window:(window_ns o ~per_s:(20 * ms) ~min_ns:(20 * ms))
      ~d ~on_open:ignore
  in
  let heap_mb = Probe.heap_peak_mb () in
  let committed = Rolis.Cluster.released cluster in
  let w = { o; p; clusters; s0; s1; events; speed; setup_s; heap_mb; committed; reads = 0; d } in
  let lat = Rolis.Cluster.latency cluster in
  let res =
    finish w ~name:"tpcc_exec" ~cfg ~lat ~extra:no_extra ~stage_cluster:cluster
      ~specific:(client_layers () @ shard_layers () @ failover_layers ())
      ~samples:[ ("commit latency", Sim.Metrics.Hist.count lat) ]
      ~attempted:(Rolis.Cluster.executed cluster + Rolis.Cluster.user_aborts cluster)
      ~failed:0
  in
  stop := true;
  Probe.span p "drain" (fun () -> drain eng clusters ~min:(300 * ms));
  conclude w res
    (Probe.span p "checks" (fun () ->
         (match Rolis.Cluster.leader cluster with
         | Some r ->
             List.map
               (fun e -> "tpcc consistency: " ^ e)
               (Workload.Tpcc.consistency_errors tpcc_params (Rolis.Replica.db r))
         | None -> [ "no serving leader after the drain" ])
         @ violations_of "agreement" (Rolis.Check.agreement cluster)
         @ violations_of "convergence" (Rolis.Check.convergence cluster)))

(* ===================================================================== *)
(* ycsb_rw: small OCC writes on the leader + snapshot follower reads     *)
(* ===================================================================== *)

let ycsb_params = { Workload.Ycsb.default with Workload.Ycsb.keys = 200_000 }
let read_sessions = 256

(* A closed-loop read session on a driver-managed [Client]: one
   outstanding read, timed from issue to ack; reads that end inside the
   window count. *)
let spawn_reader eng sess ~gen ~stop ~in_window ~(r : reqs) =
  ignore
    (Sim.Engine.spawn eng ~name:"bench-reader" (fun () ->
         while not !stop do
           let payload = gen () in
           let t0 = Sim.Engine.time () in
           let acked0 = Rolis.Client.acked_count sess in
           let trouble0 = session_troubles sess in
           let counted = in_window t0 in
           if counted then r.attempted <- r.attempted + 1;
           ignore (Rolis.Client.request sess payload);
           let t1 = Sim.Engine.time () in
           let acked = Rolis.Client.acked_count sess > acked0 in
           if counted then begin
             if session_troubles sess > trouble0 || not acked then r.troubled <- r.troubled + 1;
             if not acked then r.abandoned <- r.abandoned + 1
           end;
           if acked && in_window t1 then begin
             r.acked <- r.acked + 1;
             Sim.Metrics.Hist.add r.lat (t1 - t0)
           end
         done;
         Probe.park_forever ()))

let ycsb_rw o =
  let p = Probe.create ~traced:o.traced in
  let cfg =
    tune o
      {
        Rolis.Config.ycsb with
        Rolis.Config.workers = 4;
        follower_reads = true;
        clients = read_sessions;
      }
  in
  let stop = ref false in
  let d = durable () in
  let app = Probe.wrap_app p ~stop (Workload.Ycsb.app ycsb_params) in
  let cluster, setup_s =
    timed_setup p (fun () -> Rolis.Cluster.create ?on_durable:(hook p d) cfg app)
  in
  if o.setup_only then raise (Setup_only setup_s);
  let eng = Rolis.Cluster.engine cluster in
  let net = Rolis.Cluster.network cluster in
  let r = reqs () in
  let w_open = ref max_int and w_close = ref max_int in
  let in_window t = t >= !w_open && t <= !w_close in
  let sessions =
    Array.init read_sessions (fun cid ->
        let sess =
          Rolis.Client.create net ~cfg ~cid ~ro:true
            ~stats:(Rolis.Cluster.client_read_stats cluster)
            ()
        in
        let gen = Workload.Ycsb.read_payload_gen ycsb_params (gen_rng o cid) in
        let gen = if o.traced then Probe.timed p.Probe.gen gen else gen in
        spawn_reader eng sess ~gen ~stop ~in_window ~r;
        sess)
  in
  let clusters = [| cluster |] in
  let c0 = ref [||] in
  let window = window_ns o ~per_s:(16 * ms) ~min_ns:(20 * ms) in
  let s0, s1, events, speed =
    measure ~p ~eng ~clusters ~warmup:(120 * ms) ~window ~d ~on_open:(fun () ->
        w_open := Sim.Engine.now eng;
        w_close := !w_open + window;
        c0 := counters sessions)
  in
  let sessions = (!c0, counters sessions) in
  let heap_mb = Probe.heap_peak_mb () in
  let committed = Rolis.Cluster.released cluster in
  let w = { o; p; clusters; s0; s1; events; speed; setup_s; heap_mb; committed; reads = r.acked; d } in
  let lat = Rolis.Cluster.latency cluster in
  let park_p99 = stage cluster "client_park" `P99 in
  let res =
    finish w ~name:"ycsb_rw" ~cfg ~lat
      ~extra:{ no_extra with x_reads = Some r; x_failed_ratio = ratio r.troubled r.attempted }
      ~stage_cluster:cluster
      ~specific:(client_layers ~sessions ~reqs:r ~park_p99 () @ shard_layers () @ failover_layers ())
      ~samples:
        [
          ("commit latency", Sim.Metrics.Hist.count lat);
          ("read latency", Sim.Metrics.Hist.count r.lat);
        ]
      ~attempted:0 ~failed:0
  in
  let writes = Rolis.Cluster.executed cluster + Rolis.Cluster.user_aborts cluster in
  stop := true;
  Probe.span p "drain" (fun () -> drain eng clusters ~min:(300 * ms));
  let violations =
    Probe.span p "checks" (fun () ->
        violations_of "agreement" (Rolis.Check.agreement cluster)
        @ violations_of "convergence" (Rolis.Check.convergence cluster)
        @ violations_of "snapshot_reads" (Rolis.Check.snapshot_reads cluster))
  in
  (* Reads issued in the window finish during the drain: only now is it
     known whether each was acked, and how much of the audit sample the
     snapshot-read check saw. *)
  conclude w
    {
      res with
      attempted = writes + r.attempted;
      failed = r.abandoned;
      samples =
        res.samples @ [ ("read audit skipped", Rolis.Cluster.read_audit_skipped cluster) ];
    }
    violations

(* ===================================================================== *)
(* shard_2pc: two groups, Router + Shard 2PC + driver sessions           *)
(* ===================================================================== *)

let shard_drivers = 48
let warehouses_per_shard = 4

let shard_2pc o =
  let p = Probe.create ~traced:o.traced in
  let shards = 2 and cross_pct = 0.10 and workers = 4 in
  let warehouses = warehouses_per_shard * shards in
  let params = Workload.Tpcc.with_warehouses Workload.Tpcc.default warehouses in
  let router = Rolis.Router.tpcc ~warehouses ~shards in
  (* The per-shard settings of the sharded scale-out figure: small
     per-shard capacity, adaptive batching, physical serialization. *)
  let cfg =
    tune o
      {
        Rolis.Config.default with
        Rolis.Config.workers;
        cores = 2 * workers;
        batch_size = 64;
        batch_policy = Rolis.Config.Adaptive;
        costs = { Silo.Costs.default with Silo.Costs.txn_begin_ns = 250_000 };
        physical_serialization = true;
        clients = shard_drivers;
        shards;
        cross_pct;
      }
  in
  let d = durable () in
  let on_durable =
    if p.Probe.traced then
      Some (fun ~shard ~replica:_ ~stream ~idx e -> observe d ~group:shard ~stream ~idx e)
    else None
  in
  let never = ref false in
  let dep, setup_s =
    timed_setup p (fun () ->
        Rolis.Shard.create ?on_durable ~veto:(Workload.Tpcc.veto params) cfg router
          (fun ~shard:_ -> Probe.wrap_app p ~stop:never (Workload.Tpcc.client_app params))
          ~gen:(fun ~rng ~driver:_ ->
            let g = Workload.Tpcc.shard_gen params router ~cross_pct ~rng in
            if o.traced then Probe.timed p.Probe.gen g else g))
  in
  if o.setup_only then raise (Setup_only setup_s);
  let eng = Rolis.Shard.engine dep in
  let clusters = Rolis.Shard.clusters dep in
  let s0, s1, events, speed =
    measure ~p ~eng ~clusters ~warmup:(200 * ms)
      ~window:(window_ns o ~per_s:(250 * ms) ~min_ns:(100 * ms))
      ~d
      ~on_open:(fun () -> Rolis.Shard.reset_window dep)
  in
  let heap_mb = Probe.heap_peak_mb () in
  let committed = Rolis.Shard.committed dep in
  let lat = Rolis.Shard.latency dep and xlat = Rolis.Shard.cross_latency dep in
  let w = { o; p; clusters; s0; s1; events; speed; setup_s; heap_mb; committed; reads = 0; d } in
  let res =
    finish w ~name:"shard_2pc" ~cfg ~lat
      ~extra:{ no_extra with x_cross = Some xlat }
      ~stage_cluster:clusters.(0)
      ~specific:(client_layers () @ shard_layers ~dep () @ failover_layers ())
      ~samples:
        [
          ("commit latency", Sim.Metrics.Hist.count lat);
          ("cross-shard latency", Sim.Metrics.Hist.count xlat);
        ]
      ~attempted:(committed + Rolis.Shard.aborted dep)
      ~failed:0
  in
  let quiet = Probe.span p "drain" (fun () -> Rolis.Shard.quiesce dep) in
  Probe.span p "drain" (fun () -> drain eng clusters ~min:(300 * ms));
  conclude w res
    (Probe.span p "checks" (fun () ->
         (if quiet then [] else [ "drivers did not quiesce" ])
         @ List.concat
             (Array.to_list
                (Array.mapi
                   (fun i c ->
                     let tag n = Printf.sprintf "shard %d %s" i n in
                     (match Rolis.Cluster.leader c with
                     | Some r ->
                         List.map
                           (fun e -> tag "tpcc consistency: " ^ e)
                           (Workload.Tpcc.consistency_errors params (Rolis.Replica.db r))
                     | None -> [ tag "has no serving leader" ])
                     @ violations_of (tag "agreement") (Rolis.Check.agreement c)
                     @ violations_of (tag "convergence") (Rolis.Check.convergence c)
                     @ violations_of (tag "exactly_once")
                         (Rolis.Check.exactly_once c ~acked:(Rolis.Shard.acked_seqs dep i)))
                   clusters))
         @ violations_of "cross_shard" (Rolis.Check.cross_shard clusters)))

(* ===================================================================== *)
(* failover: open-loop Poisson client ops through a leader crash         *)
(* ===================================================================== *)

let fo_sessions = 256
let fo_rate = 1000.0 (* requests per virtual second, well under capacity *)
let fo_params = { ycsb_params with Workload.Ycsb.keys = 50_000 }

(* One failover episode is a fresh deployment whose serving leader
   crashes [fo_crash_after] into a window of [fo_window]. A run measures
   as many episodes as its [--seconds] buys (about three per host second
   when the benchmark was introduced, set-up included) and merges them
   (see [failover]).
   The outage length is heavy-tailed: followers check their election
   timeout only once per heartbeat interval, so both survivors often stand
   in the same tick, split the vote and back off (3-4 s outages, sometimes
   8-12 s, instead of ~1 s), and the worst episode stays visible as
   [failover.worst_gap_ms]. Episodes are separate deployments rather than
   repeated crashes of one group because the backoff a losing candidate
   keeps would make every later failover depend on the earlier ones. *)
let fo_window = 5 * s
let fo_crash_after = 1500 * ms
let fo_tail = 1 * s (* the generator stops this long before the window closes *)
let fo_episodes_per_s = 3.0

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

type episode = { ep_res : Report.result; ep_acked : int; ep_hsecs : float }

let failover_episode o ~ep =
  let p = Probe.create ~traced:o.traced in
  let o = { o with seed = (o.seed * 1000) + ep } in
  let cfg =
    tune o
      {
        Rolis.Config.default with
        Rolis.Config.workers = 4;
        cores = 8;
        batch_size = 64;
        batch_policy = Rolis.Config.Adaptive;
        clients = fo_sessions;
      }
  in
  let d = durable () in
  let never = ref false in
  let app = Probe.wrap_app p ~stop:never (Workload.Ycsb.client_app fo_params) in
  let cluster, setup_s =
    timed_setup p (fun () -> Rolis.Cluster.create ?on_durable:(hook p d) cfg app)
  in
  if o.setup_only then raise (Setup_only setup_s);
  let eng = Rolis.Cluster.engine cluster in
  let net = Rolis.Cluster.network cluster in
  let window = fo_window in
  let r = reqs () in
  let w_open = ref max_int and crash_at = ref max_int in
  let elected = ref None and first_ack = ref None in
  let due_in_outage = ref 0 in
  let outstanding = ref 0 in
  let sessions =
    Array.init fo_sessions (fun cid ->
        Rolis.Client.create net ~cfg ~cid ~stats:(Rolis.Cluster.client_stats cluster) ())
  in
  (* YCSB client payloads: 4 uniform keys, read-only or RMW. *)
  let rng = gen_rng o 7 in
  let payload () =
    let keys =
      List.init fo_params.Workload.Ycsb.ops_per_txn (fun _ ->
          string_of_int (Sim.Rng.int rng fo_params.Workload.Ycsb.keys))
    in
    Printf.sprintf "t %d %s"
      (if Sim.Rng.float rng 1.0 < fo_params.Workload.Ycsb.read_ratio then 1 else 0)
      (String.concat "," keys)
  in
  let payload = if o.traced then Probe.timed p.Probe.gen payload else payload in
  (* Due requests queue here with their due time; each session process
     serves one at a time, so a stalled cluster makes later requests wait
     in the queue and the wait counts in their latency. Every request due
     in the window is timed to its ack, through the drain: dropping the
     ones a long outage pushes past the window would hide exactly the
     latency this workload exists to show. *)
  let due = Sim.Sync.Mailbox.create eng in
  Array.iter
    (fun sess ->
      ignore
        (Sim.Engine.spawn eng ~name:"bench-session" (fun () ->
             while true do
               let t_due, pl = Sim.Sync.Mailbox.recv due in
               Sim.Metrics.Hist.add r.late (Sim.Engine.time () - t_due);
               let trouble0 = session_troubles sess in
               (match Rolis.Client.request sess pl with
               | `Ok | `Aborted -> ()
               | `Stopped -> assert false);
               let t1 = Sim.Engine.time () in
               decr outstanding;
               if session_troubles sess > trouble0 then r.troubled <- r.troubled + 1;
               Sim.Metrics.Hist.add r.lat (t1 - t_due);
               if t1 <= !w_open + window then r.acked <- r.acked + 1;
               if t_due >= !crash_at && !first_ack = None then first_ack := Some t1
             done)))
    sessions;
  (* Poisson arrivals until [fo_tail] before the window closes. *)
  let open_loop () =
    let next = ref (Sim.Engine.time ()) in
    let stop_at = !w_open + window - fo_tail in
    while !next < stop_at do
      next := !next + int_of_float (Sim.Rng.exponential rng ~mean:(1e9 /. fo_rate));
      Sim.Engine.sleep_until !next;
      if !next < stop_at then begin
        r.attempted <- r.attempted + 1;
        incr outstanding;
        if !next >= !crash_at && !elected = None then incr due_in_outage;
        Sim.Sync.Mailbox.send due (!next, payload ())
      end
    done
  in
  (* 1 ms polling from the crash until a surviving replica serves. *)
  let watch_election () =
    while !elected = None do
      Sim.Engine.sleep ms;
      if
        Array.exists
          (fun r -> Rolis.Replica.is_alive r && Rolis.Replica.is_serving r)
          (Rolis.Cluster.replicas cluster)
      then elected := Some (Sim.Engine.time ())
    done
  in
  let clusters = [| cluster |] in
  let c0 = ref [||] in
  let s0, s1, events, speed =
    measure ~p ~eng ~clusters ~warmup:(200 * ms) ~window ~d ~on_open:(fun () ->
        w_open := Sim.Engine.now eng;
        c0 := counters sessions;
        ignore (Sim.Engine.spawn eng ~name:"bench-open-loop" open_loop);
        Sim.Engine.schedule eng (!w_open + fo_crash_after) (fun () ->
            crash_at := Sim.Engine.now eng;
            (match Rolis.Cluster.leader cluster with
            | Some l -> Rolis.Cluster.crash_replica cluster (Rolis.Replica.id l)
            | None -> ());
            ignore (Sim.Engine.spawn eng ~name:"bench-election-watch" watch_election)))
  in
  let heap_mb = Probe.heap_peak_mb () in
  let since_crash = function Some t -> ms_of_ns (t - !crash_at) | None -> 0.0 in
  (* Requests still unacked when the window closes count as failed. *)
  let failed = !outstanding in
  let w = { o; p; clusters; s0; s1; events; speed; setup_s; heap_mb; committed = r.acked; reads = 0; d } in
  let park_p99 = stage cluster "client_park" `P99 in
  let gap = since_crash !first_ack in
  let res =
    finish w ~name:"failover" ~cfg ~lat:r.lat
      ~extra:
        { no_extra with x_gap_ms = gap; x_failed_ratio = ratio (r.troubled + failed) r.attempted }
      ~stage_cluster:cluster
      ~specific:
        (client_layers ~sessions:(!c0, counters sessions) ~late:r.late
           ~due_in_outage:!due_in_outage ~reqs:r ~park_p99 ()
        @ shard_layers ()
        @ failover_layers ~elect_ms:(since_crash !elected) ~first_ack_ms:gap ())
      ~samples:
        [
          ("request latency (from due time)", Sim.Metrics.Hist.count r.lat);
          ("generator lateness", Sim.Metrics.Hist.count r.late);
        ]
      ~attempted:r.attempted ~failed
  in
  (* Drain: drive every outstanding request to its ack before the checks
     (exactly-once needs a quiescent point). *)
  Probe.span p "drain" (fun () ->
      let deadline = Sim.Engine.now eng + (30 * s) in
      while !outstanding > 0 && Sim.Engine.now eng < deadline do
        Sim.Engine.run ~until:(Sim.Engine.now eng + (100 * ms)) eng
      done;
      drain eng clusters ~min:(300 * ms));
  let acked = List.concat_map Rolis.Client.acked_seqs (Array.to_list sessions) in
  let tag v = Printf.sprintf "episode %d %s" ep v in
  (* An election that outlasts the longest randomized timeout (1.5x the
     base) plus one heartbeat tick went through more than one candidacy:
     the vote split. *)
  let split =
    match !elected with
    | Some t -> t - !crash_at > (3 * cfg.Rolis.Config.election_timeout / 2) + cfg.heartbeat_interval
    | None -> true
  in
  (* The request-derived figures are final only now. *)
  let gap = since_crash !first_ack in
  let set value m = { m with value } in
  let refresh m =
    match m.name with
    | "commit_p50_ms" -> set (hist_ms r.lat 0.5) m
    | "commit_p99_ms" -> set (hist_ms r.lat 0.99) m
    | "failover.gap_ms" | "failover.first_ack_ms" | "failover.worst_gap_ms" -> set gap m
    | "failover.elect_ms" -> set (since_crash !elected) m
    | "client.failed_ratio" -> set (ratio (r.troubled + !outstanding) r.attempted) m
    | "client.gen_late_ms_p99" -> set (hist_ms r.late 0.99) m
    | "client.due_in_outage" -> set (fl !due_in_outage) m
    | "failover.slow_elect_share" -> set (if split then 1.0 else 0.0) m
    | _ -> m
  in
  let res =
    {
      res with
      e2e = List.map refresh res.e2e;
      extra = List.map refresh res.extra;
      layers = List.map refresh res.layers;
      failed = !outstanding;
      samples = [ ("request latency (from due time)", Sim.Metrics.Hist.count r.lat) ];
    }
  in
  let res =
    conclude w res
      (Probe.span p "checks" (fun () ->
           (if !first_ack = None then [ tag "had no request acked after the crash" ] else [])
           @ (if !outstanding > 0 then [ tag "left requests unacked after the drain" ] else [])
           @ violations_of (tag "agreement") (Rolis.Check.agreement cluster)
           @ violations_of (tag "convergence") (Rolis.Check.convergence cluster)
           @ violations_of (tag "exactly_once") (Rolis.Check.exactly_once cluster ~acked)))
  in
  { ep_res = res; ep_acked = r.acked; ep_hsecs = host_secs w }

(* Merge the episodes. Outages are heavy-tailed: a split vote (the
   followers test their election timeout only on 100 ms heartbeat ticks,
   so both survivors often stand in the same tick) turns a ~1.1 s failover
   into a 3-4 s one in about a fifth of the episodes, and now and then into
   an 8-12 s one. Any statistic that mixes the two kinds flips from seed to
   seed with their count. The simulated-time figures are therefore the
   mean over the faster half of the episodes (ranked by failover gap), the
   clean failover a client usually sees, and the split votes are reported
   on their own: [failover.slow_elect_share] is their share and
   [failover.worst_gap_ms] is the longest outage of the run. The host
   rate is the total over the total, the set-up time the median, and the
   heap peak the maximum. Each episode's p99 rests on ~3K requests, so ~30
   lie beyond it. *)
let failover o =
  let n = max 1 (int_of_float (Float.round (o.seconds *. fo_episodes_per_s))) in
  let eps =
    List.init n (fun ep ->
        let e = failover_episode o ~ep in
        Gc.full_major ();
        e)
  in
  let value name ms = (List.find (fun m -> m.name = name) ms).value in
  let gap e = value "failover.gap_ms" e.ep_res.extra in
  let faster =
    List.filteri
      (fun i _ -> i < (n + 1) / 2)
      (List.stable_sort (fun a b -> compare (gap a) (gap b)) eps)
  in
  let sum f = List.fold_left (fun a e -> a +. f e) 0.0 eps in
  let mean sel name es =
    List.fold_left (fun a e -> a +. value name (sel e.ep_res)) 0.0 es /. fl (List.length es)
  in
  let merged sel =
    List.map
      (fun m ->
        let vs = List.map (fun e -> value m.name (sel e.ep_res)) eps in
        let value =
          match m.name with
          | "host_txn_per_s" -> sum (fun e -> fl e.ep_acked) /. sum (fun e -> e.ep_hsecs)
          | "heap_peak_mb" | "failover.worst_gap_ms" -> List.fold_left max 0.0 vs
          | "setup_s" | "setup.load_s" -> median vs
          | "failover.slow_elect_share" -> mean sel m.name eps
          | _ -> mean sel m.name faster
        in
        { m with value })
      (sel (List.hd eps).ep_res)
  in
  let first = (List.hd eps).ep_res in
  let total f = List.fold_left (fun a e -> a + f e.ep_res) 0 eps in
  {
    first with
    e2e = merged (fun r -> r.e2e);
    extra = merged (fun r -> r.extra);
    layers = merged (fun r -> r.layers);
    samples =
      [
        ( "request latency per episode (min)",
          List.fold_left min max_int
            (List.map
               (fun e -> List.assoc "request latency (from due time)" e.ep_res.samples)
               eps) );
        ("failover episodes", n);
      ];
    attempted = total (fun r -> r.attempted);
    failed = total (fun r -> r.failed);
    violations = List.concat_map (fun e -> e.ep_res.violations) eps;
  }

let all = [ ("tpcc_exec", tpcc_exec); ("ycsb_rw", ycsb_rw); ("shard_2pc", shard_2pc); ("failover", failover) ]

