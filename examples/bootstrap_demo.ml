(* Adding a brand-new replica without snapshots (paper §4.3): while the
   cluster keeps committing, a dark spare machine joins as a non-voting
   learner seeded from the union of its peers' journals, catches up over
   the ordinary fetch path, and is promoted to voter by a joint-consensus
   membership change. Replay is an idempotent per-key compare-and-swap,
   so entries that race with the seeding cannot corrupt the copy.

   Run with: dune exec examples/bootstrap_demo.exe *)

let ms = Sim.Engine.ms

let () =
  let stopped = ref false in
  let app =
    let base = Rolis.App.counter_app ~keys:500 in
    {
      base with
      Rolis.App.make_worker =
        (fun db ~rng ~worker ~nworkers ->
          let gen = base.Rolis.App.make_worker db ~rng ~worker ~nworkers in
          fun () -> if !stopped then fun _txn -> () else gen ());
    }
  in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers = 4;
      cores = 8;
      batch_size = 100;
      (* Replica 3 is the spare: created dark, it joins only through
         [Cluster.add_replica]. No checkpoints: the learner is seeded from
         the archived journals alone. *)
      spare_replicas = 1;
      archive_entries = true;
      costs = { Silo.Costs.default with Silo.Costs.txn_begin_ns = 20_000 };
    }
  in
  let cluster = Rolis.Cluster.create cfg app in
  let eng = Rolis.Cluster.engine cluster in
  let now () = float_of_int (Sim.Engine.now eng) /. 1e9 in
  let added = ref false in
  Printf.printf "Running the cluster; adding spare replica 3 at t = 0.5s...\n%!";
  ignore
    (Sim.Engine.spawn eng ~name:"add-replica" (fun () ->
         Sim.Engine.sleep (500 * ms);
         added := Rolis.Cluster.add_replica cluster 3;
         Printf.printf "  [t=%.2fs] add-replica %s: voters = [%s]\n%!" (now ())
           (if !added then "committed" else "refused")
           (String.concat "; "
              (List.map string_of_int (Rolis.Cluster.members cluster)))));
  Rolis.Cluster.run cluster ~duration:Sim.Engine.s ();
  (* Freeze the workload and drain so every replica finishes replay. *)
  stopped := true;
  Rolis.Cluster.run cluster ~duration:Sim.Engine.s ();
  let dump r =
    let t = Silo.Db.table (Rolis.Replica.db r) "counters" in
    let acc = ref [] in
    Store.Table.iter t (fun k r ->
        if not r.Store.Record.deleted then acc := (k, r.Store.Record.value) :: !acc);
    List.rev !acc
  in
  let fresh = Rolis.Cluster.replica cluster 3 in
  let reference = dump (Rolis.Cluster.replica cluster 1) in
  let matches = dump fresh = reference in
  Printf.printf "released transactions: %d\n" (Rolis.Cluster.released cluster);
  Printf.printf "new replica journal: %d entries\n"
    (Rolis.Replica.journal_length fresh);
  Printf.printf "new replica matches its peers: %b (%d keys)\n" matches
    (List.length reference);
  if not (!added && matches) then exit 1
