(* Metric records, the printed report and the final JSON line. *)

type kind =
  | Sim  (** virtual-time value: exact for a fixed seed *)
  | Host  (** wall-clock or memory cost of running the simulation *)

type metric = { name : string; value : float; unit_ : string; kind : kind }

let sim name unit_ value = { name; value; unit_; kind = Sim }
let host name unit_ value = { name; value; unit_; kind = Host }

type result = {
  workload : string;
  e2e : metric list;  (** the gated end-to-end metrics *)
  extra : metric list;
      (** workload-specific end-to-end figures (cross-shard latency, read
          throughput, failover gap, failure ratio); reported with the
          per-layer metrics, see README.md *)
  layers : metric list;
  samples : (string * int) list;  (** sample count behind each percentile *)
  attempted : int;
  failed : int;
  violations : string list;  (** empty = every correctness check passed *)
  config : (string * string) list;  (** knobs the workload ran with *)
}

(* Full precision: a host-speed change must leave every simulated-time
   value bit-identical, so every number printed round-trips exactly
   ("%.17g" always does; the shorter form is used when it does too). *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s15 = Printf.sprintf "%.15g" v in
    if float_of_string s15 = v then s15 else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (num m.value) (json_string m.unit_))
         ms)
  ^ "}"

(* The simulated-time figures of a run, the input of the traced/untraced
   bit-identity check. *)
let simtime_json r =
  metrics_json (List.filter (fun m -> m.kind = Sim) (r.e2e @ r.extra))

let final_line r ~traced =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (r.violations = []) r.attempted r.failed
    (metrics_json (if traced then r.layers @ r.extra else r.e2e))

let print_human r ~traced =
  Printf.printf "workload: %s (%s run)\n" r.workload
    (if traced then "traced" else "untraced");
  List.iter (fun (k, v) -> Printf.printf "config %s = %s\n" k v) r.config;
  let show title ms =
    Printf.printf "-- %s --\n" title;
    List.iter
      (fun m ->
        Printf.printf "  %-30s %22s %-10s %s\n" m.name (num m.value) m.unit_
          (match m.kind with Sim -> "virtual" | Host -> "host"))
      ms
  in
  show "end-to-end" r.e2e;
  show "workload-specific end-to-end" r.extra;
  if traced then show "per-layer" r.layers;
  Printf.printf "-- samples --\n";
  List.iter (fun (k, n) -> Printf.printf "  %-30s %d\n" k n) r.samples;
  Printf.printf "attempted %d, failed %d\n" r.attempted r.failed;
  (match r.violations with
  | [] -> Printf.printf "checks: all passed\n"
  | vs -> List.iter (fun v -> Printf.printf "CHECK FAILED: %s\n" v) vs);
  Printf.printf "simtime: %s\n%!" (simtime_json r)

(* ---- configuration dump ----

   Every field of [Rolis.Config.t] and [Silo.Costs.t] that a default
   change could move, plus a digest of both whole records so that a field
   this list does not name still shows up as a changed digest. *)

let latency_model = function
  | Sim.Net.Fixed d -> Printf.sprintf "fixed(%d)" d
  | Sim.Net.Uniform (lo, hi) -> Printf.sprintf "uniform(%d,%d)" lo hi
  | Sim.Net.Exp_jitter { base; jitter_mean } ->
      Printf.sprintf "exp_jitter(base=%d,jitter_mean=%d)" base jitter_mean

let costs_fields (c : Silo.Costs.t) =
  let i = string_of_int and f = Printf.sprintf "%.17g" in
  [
    ("txn_begin_ns", i c.txn_begin_ns);
    ("read_ns", i c.read_ns);
    ("write_ns", i c.write_ns);
    ("scan_base_ns", i c.scan_base_ns);
    ("scan_row_ns", i c.scan_row_ns);
    ("commit_base_ns", i c.commit_base_ns);
    ("lock_ns", i c.lock_ns);
    ("validate_ns", i c.validate_ns);
    ("abort_ns", i c.abort_ns);
    ("value_byte_ns", f c.value_byte_ns);
    ("serialize_byte_ns", f c.serialize_byte_ns);
    ("replicate_byte_ns", f c.replicate_byte_ns);
    ("replay_write_ns", i c.replay_write_ns);
    ("replay_seek_ns", i c.replay_seek_ns);
    ("replay_next_ns", i c.replay_next_ns);
    ("hash_read_ns", i c.hash_read_ns);
    ("hash_write_ns", i c.hash_write_ns);
    ("snapshot_read_ns", i c.snapshot_read_ns);
  ]

let config_fields (c : Rolis.Config.t) =
  let i = string_of_int and b = string_of_bool in
  [
    ("replicas", i c.replicas);
    ("spare_replicas", i c.spare_replicas);
    ("workers", i c.workers);
    ("cores", i c.cores);
    ( "stream_mode",
      match c.stream_mode with
      | Rolis.Config.Per_worker -> "per_worker"
      | Single -> "single"
      | Sharded n -> Printf.sprintf "sharded(%d)" n );
    ( "batch_policy",
      match c.batch_policy with Rolis.Config.Fixed -> "fixed" | Adaptive -> "adaptive" );
    ("batch_size", i c.batch_size);
    ("batch_flush_interval", i c.batch_flush_interval);
    ("target_batch_delay_ns", i c.target_batch_delay_ns);
    ("max_batch_bytes", i c.max_batch_bytes);
    ("watermark_interval", i c.watermark_interval);
    ("heartbeat_interval", i c.heartbeat_interval);
    ("election_timeout", i c.election_timeout);
    ("net_latency", latency_model c.net_latency);
    ("physical_serialization", b c.physical_serialization);
    ("networked_clients", b c.networked_clients);
    ("client_rpc_overhead", i c.client_rpc_overhead);
    ("client_rtt", i c.client_rtt);
    ("clients", i c.clients);
    ("client_timeout", i c.client_timeout);
    ("client_retry_limit", i c.client_retry_limit);
    ("client_backoff_base", i c.client_backoff_base);
    ("client_backoff_max", i c.client_backoff_max);
    ("client_park_interval", i c.client_park_interval);
    ("admission_max_pending", i c.admission_max_pending);
    ("admission_max_release", i c.admission_max_release);
    ("admission_max_backlog", i c.admission_max_backlog);
    ("enqueue_cs_ns", i c.enqueue_cs_ns);
    ("entry_overhead_ns", i c.entry_overhead_ns);
    ( "replay_batch",
      match c.replay_batch with Rolis.Config.PerTxn -> "per_txn" | Bulk -> "bulk" );
    ("replay_parallel", i c.replay_parallel);
    ("disable_replay", b c.disable_replay);
    ("hash_tables", String.concat "," c.hash_tables);
    ("archive_entries", b c.archive_entries);
    ("checkpoint_interval", i c.checkpoint_interval);
    ("follower_reads", b c.follower_reads);
    ("read_lease", i c.read_lease);
    ("read_workers", i c.read_workers);
    ("read_retry_limit", i c.read_retry_limit);
    ("wan_profile", c.wan_profile);
    ("shards", i c.shards);
    ("cross_pct", Printf.sprintf "%.17g" c.cross_pct);
    ("trace_sample_interval", i c.trace_sample_interval);
    ("trace_buffer_capacity", i c.trace_buffer_capacity);
    ("seed", Int64.to_string c.seed);
  ]
  @ List.map (fun (k, v) -> ("costs." ^ k, v)) (costs_fields c.costs)

(* The digest leaves out the fields that legitimately differ between the
   traced and untraced runs of one seed. *)
let config_dump (c : Rolis.Config.t) =
  let canon = { c with Rolis.Config.trace_sample_interval = 0 } in
  config_fields c
  @ [ ("digest", Digest.to_hex (Digest.string (Marshal.to_string canon []))) ]
