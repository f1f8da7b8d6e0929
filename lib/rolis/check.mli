(** Invariant checking for chaos runs.

    Two layers:

    - {!Oracle} checks {e Paxos agreement continuously}: an [on_durable]
      hook feeds it every durability commit from every replica, and the
      first conflicting commit for a [(stream, index)] slot is flagged at
      the moment it happens — which makes a chaos failure bisectable to
      the exact commit.
    - The cluster-level checks run at chosen points (typically after a
      quiesce): journal prefix agreement, sealed-watermark agreement,
      cross-replica state convergence, and the bank money invariant.

    Money conservation and convergence only hold at {e quiescent} points:
    replay applies transactions per-key, so mid-flight a replica's state
    can transiently violate per-transaction atomicity, but it always
    converges to the serial result once replay drains (paper §3.4). *)

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

module Oracle : sig
  type t

  val create : unit -> t

  val observe :
    t -> replica:int -> stream:int -> idx:int -> Store.Wire.entry -> unit
  (** Wire as [Cluster.create ~on_durable:(Oracle.observe oracle)]. O(1)
      per commit: the first commit for a slot is recorded as chosen, every
      later one (other replicas, restarted replicas re-observing their
      injected prefix) must equal it. *)

  val violations : t -> violation list
  val entries_checked : t -> int
end

val agreement : Cluster.t -> violation list
(** All alive replicas agree on the entry at every absolute
    [(stream, idx)] slot their journals share (requires
    [archive_entries]). Keyed by absolute index, not list position:
    under checkpoint truncation different replicas retain different
    journal windows. *)

val watermark_agreement : Cluster.t -> violation list
(** For every sealed epoch, all alive replicas that sealed it agree on its
    final watermark. Safe to run at any time. *)

val membership_agreement : Cluster.t -> violation list
(** Any two alive replicas that adopted the same membership generation
    hold the same view — configurations travel through the replicated
    log, so a same-generation mismatch is a forked config entry.
    Different generations are legal (a node down through a change is
    merely behind). Safe to run at any time. *)

val convergence : Cluster.t -> violation list
(** All alive replicas hold identical live records. Quiescent points
    only: stop the workload, heal the network, and drain replay first. *)

val money : Cluster.t -> table:string -> expected:int -> violation list
(** The integer balances in [table] sum to [expected] on every alive
    replica. Quiescent points only. *)

val cross_shard : Cluster.t array -> violation list
(** Cross-shard 2PC audit of a {!Shard} deployment over the
    {!Store.Wire.decision} marks its journals carry (one cluster per
    shard; requires [archive_entries]). Ground truth per shard is the
    union durable log filtered by the final-watermark rule (as
    {!exactly_once}); the marks are then judged by {!cross_shard_marks}.
    Quiescent points only, with checkpoint truncation off. *)

val cross_shard_marks : Store.Wire.decision list array -> violation list
(** The protocol rules behind {!cross_shard}, over the durable marks of
    each shard (index = shard id). The coordinator's decision transaction
    is also its apply, so the decision shard of a committed xid counts as
    applied. Violations: a transaction id with both commit and abort
    decisions, or with more than one commit decision (the coordinator's
    sub-transaction applied twice); a [Prepared] mark on the decision
    shard (the coordinator never stages an intent); an [Applied] mark on the decision shard of a
    committed xid (a double apply); a participant applying more than once
    (apply-retry dedup failure), applying despite an abort decision,
    applying with no decision anywhere, or canceling despite a commit
    decision; and — atomicity's completeness half — a commit decision
    whose named remote participant never applied (a shard that failed
    over between prepare and apply must recover the intent from its
    journal). *)

val money_sharded :
  Cluster.t array -> table:string -> expected:int -> violation list
(** Global conservation over a sharded deployment: the balances in
    [table] summed over one alive replica per shard (per-shard
    convergence checked separately) equal [expected]. A half-applied
    cross-shard transfer leaks or destroys money here even when every
    per-shard check passes. Quiescent points only. *)

val exactly_once : Cluster.t -> acked:(int * int) list -> violation list
(** End-to-end exactly-once audit of the client-session layer against the
    union durable log (every [(stream, idx)] slot committed on an alive
    replica; requires [archive_entries]) merged with the cluster's
    harvested dedup evidence for slots checkpoint truncation dropped
    from every surviving journal. A request-carrying
    transaction counts as applied iff it is at or below its epoch's final
    watermark (all of the last, unsealed epoch after a drain). Violations:
    any [(client, seq)] applied more than once (dedup failure), or an
    entry of [acked] — the [(client, seq)] pairs the {!Client} sessions
    got [Ok_released] for — applied zero times (a released result was
    lost: the §3.3 visibility guarantee broken). Quiescent points only. *)

val snapshot_reads : Cluster.t -> violation list
(** Audit of the follower snapshot-read path against the union durable
    log (requires [archive_entries]; meaningful with
    [Config.follower_reads]). Each replica's deterministic sample of
    served reads ({!Replica.read_audits}) records the pin and every
    observation [(table, key, observed version ts)]. Violations: an
    observation above the read's pin (escaped its snapshot — possibly
    speculative state); an observation older than an applied durable
    write at or below the pin (stale or torn snapshot: version
    reclamation raced a pinned read); or — absent checkpoint
    truncation — an observed version present in no applied durable
    transaction. Quiescent points only (the final-watermark rule needs
    the drain). *)
