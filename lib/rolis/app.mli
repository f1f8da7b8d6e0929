(** Application (workload) interface to a Rolis cluster.

    An app declares how to populate a fresh database and how each worker
    generates transaction bodies. [setup] runs identically on every
    replica before the simulation starts (replicas begin in sync, as in
    the paper's setup; adding an out-of-sync replica goes through
    {!Cluster.add_replica}). [make_worker] is called once per worker per replica and
    returns a generator producing one transaction body per call; the body
    runs under {!Silo.Db.run} on the leader. *)

type gen = unit -> Silo.Txn.t -> unit

type t = {
  name : string;
  setup : Silo.Db.t -> unit;
  make_worker : Silo.Db.t -> rng:Sim.Rng.t -> worker:int -> nworkers:int -> gen;
  client_op : (Silo.Db.t -> payload:string -> Silo.Txn.t -> unit) option;
      (** interpret a networked client request: parse [payload] (an
          app-defined encoding) into a transaction body. Required when the
          cluster runs with [Config.clients > 0] — workers then serve
          queued client requests instead of calling [make_worker]'s
          generator. *)
  read_op : (Silo.Db.t -> payload:string -> Silo.Db.snap -> string) option;
      (** interpret a read-only client request against a watermark-pinned
          snapshot ({!Silo.Db.read_at}): parse [payload] and return the
          reply value carried back in [Ok_read]. The body must be pure
          reads through {!Silo.Db.snap_get} — there is no transaction, no
          locks and no validation. Required when the cluster runs with
          [Config.follower_reads] and read-only client sessions. *)
}

val counter_app : keys:int -> t
(** A tiny built-in app (random read-modify-write increments over [keys]
    counters) used by tests and the quickstart example. Its client payload
    is a decimal key index. *)
