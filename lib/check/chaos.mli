(** Seeded chaos schedules over a live workload, with a consistency verdict.

    A chaos run builds a cluster, derives a randomized {e schedule} of
    site failures/repairs, total failures, and partitions from the seed,
    installs a message-fault profile, and drives a closed-loop client
    workload through a {!Blockrep.Reliable_device} while the schedule
    plays out.  At the end it lets the system drain, runs {!Invariant}
    scans (once as-is, once after repairing every site and healing the
    network), reads every block back, and hands the recorded history to
    the {!Oracle}.  Everything is derived from the seed: same environment
    + same seed = same run, bit for bit.

    {b Supported environments.}  Each scheme has a fault envelope inside
    which it must be violation-free, encoded by {!default_env}:

    - {e available copy} and {e naive available copy}: site failures +
      total failures + benign message faults (duplicate, reorder, jitter,
      extra delay).  Partitions excluded, as the paper itself notes
      (available-copy schemes assume failures are clean).
    - {e voting} and {e dynamic voting}: benign message faults only.
      Site failures, partitions and total failures are {e excluded}: the
      paper's one-round write commits on votes and propagates the new
      version with one unacknowledged update multicast (that is what
      makes its multicast write cost 1+u), so a voter that crashes — or
      is cut off — between its counted vote and the update's delivery
      keeps a stale disk, and a later read quorum formed without the
      writer can be jointly stale.  Forcing [failures = true] on voting
      is the canonical demonstration that the oracle catches this.

    Message {e drops} are outside every envelope: update propagation is
    fire-and-forget in all three protocols, so a dropped update is lost
    for good.  Forcing drops/partitions/failures beyond the envelope, or
    weakening the quorum thresholds via {!Blockrep.Quorum.unsafe}, turns
    the harness into a demonstration that the oracle catches real
    violations. *)

type event =
  | Fail of int
  | Repair of int
  | Partition of int list list
  | Heal
  | Crash_torn of int
      (** arm the site's next crash to tear its most recent journaled
          write, then fail it — the committed intention survives, so the
          recovery scrub replays the write (no guard needed: even a sole
          survivor loses nothing acknowledged) *)
  | Bitrot of int * int
      (** (site, block): silent sector decay of one stored copy.  Applied
          only when some other mounted site holds a verified copy at least
          as new — destroying the only current copy is unmaskable by any
          replication protocol (the paper's disks are fail-stop) *)
  | Disk_replace of int
      (** swap the site's medium for a blank one (fails the site).
          Applied only when every block it holds is covered by a verified
          peer copy, same reasoning as bitrot *)
  | Slow_site of int * float
      (** (site, rate factor): gray failure — the site's service times are
          scaled by the factor from now on (1.0 restores full speed).  The
          site stays up and still answers; no-op without a service model *)
  | Burst of int
      (** the workload loop issues its next [n] operations back-to-back
          (no think time): closed-loop arrival pressure *)
  | Queue_flood of int * int
      (** (site, count): inject [count] junk jobs into the site's work
          queue ahead of legitimate traffic; no-op without a service
          model *)
  | Wire_corrupt of int * int
      (** (from, dst): the directed link becomes a {e persistent}
          corruptor — every frame it carries is bit-flipped until healed.
          No-op without a fault injector; has no observable effect unless
          the cluster runs encoded delivery (there are no wire bytes to
          damage otherwise).  A persistent corruptor defeats the bounded
          redelivery budget by design, turning corruption into message
          loss on that link — outside every scheme's envelope, and the
          circuit breaker's job to contain. *)
  | Wire_heal of int * int
      (** (from, dst): restore the link to the run's ambient profile *)

type schedule = (float * event) list
(** Timed events, ascending. *)

type env = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  n_blocks : int;
  seed : int;
  ops : int;  (** workload operations issued by the client *)
  mean_gap : float;  (** mean think time between operations *)
  reads_per_write : float;
  horizon : float;  (** schedule events are generated on [0, horizon] *)
  failures : bool;  (** independent per-site failure/repair processes *)
  failure_rate : float;  (** per-site failure rate (mean up time = 1/rate) *)
  down_mean : float;  (** mean repair time of an individual failure *)
  partitions : bool;
  partition_rate : float;
  partition_duration : float;
  total_failures : bool;  (** whole-system crashes (staggered site failures) *)
  total_failure_rate : float;
  total_down_mean : float;  (** mean per-site outage after a total failure *)
  faults : Net.Faults.profile;  (** message-fault profile for the run *)
  weaken_read : int option;  (** voting: forced (unsafe) read threshold *)
  weaken_write : int option;  (** voting: forced (unsafe) write threshold *)
  settle : float option;  (** driver-stub failover settle override *)
  readback : bool;  (** read every block back after final recovery *)
  batch : int;
      (** > 1 routes the workload through a write-back cache over the
          device: writes are absorbed until [batch] blocks are dirty,
          then commit as one batched group request.  The harness also
          flushes the dirty set just before each injected failure or
          partition (flush-on-failover, skipped if a client operation is
          mid-flight — the oracle judges single-client histories, so a
          nested commit may not be recorded inside another operation)
          and again after final recovery.
          The client-visible history then contains the {e committed}
          operations, so the oracle judges what the replicated layer
          actually did — the cache's absorption delay is invisible to
          it.  [1] (the default) is the unbatched path, bit-identical
          to the historical harness. *)
  crash_writes : bool;  (** seeded {!Crash_torn} process (default off) *)
  crash_write_rate : float;
  bitrot : bool;  (** seeded {!Bitrot} process (default off) *)
  bitrot_rate : float;
  disk_replace : bool;  (** seeded {!Disk_replace} process (default off) *)
  disk_replace_rate : float;
  media_down_mean : float;
      (** mean outage after a crash-torn write or a disk replacement,
          before the paired repair *)
  service : Net.Service_model.t option;
      (** per-site service model for the run's cluster (default [None]:
          infinitely fast sites, bit-identical to the historical harness) *)
  robustness : Blockrep.Robustness.t;
      (** client-side robustness stack for the run's cluster (default
          {!Blockrep.Robustness.off}) *)
  slow_sites : bool;  (** seeded {!Slow_site} episodes (default off) *)
  slow_rate : float;
  slow_factor : float;  (** degradation factor of a slow episode *)
  slow_mean : float;  (** mean episode duration *)
  bursts : bool;  (** seeded {!Burst} process (default off) *)
  burst_rate : float;
  burst_ops : int;  (** operations issued back-to-back per burst *)
  queue_floods : bool;  (** seeded {!Queue_flood} process (default off) *)
  flood_rate : float;
  flood_count : int;  (** junk jobs injected per flood *)
  encoded : bool;
      (** run the cluster in encoded-frame delivery mode (default off:
          in-heap delivery, bit-identical to the historical harness) *)
  wire_corrupt_links : bool;
      (** seeded {!Wire_corrupt}/{!Wire_heal} episodes (default off; see
          {!Wire_corrupt} for why these sit outside every envelope) *)
  wire_corrupt_rate : float;
  wire_corrupt_mean : float;  (** mean corruptor-episode duration *)
}

val default_env : ?seed:int -> Blockrep.Types.scheme -> env
(** The scheme's supported environment (see above) at moderate chaos
    rates: 3 sites, 8 blocks, 110 operations, benign-fault profile
    {!supported_faults}.  All media-fault processes are off: a default
    run exercises no storage fault and is bit-identical to the
    pre-durable harness. *)

val media_env : ?seed:int -> Blockrep.Types.scheme -> env
(** {!default_env} plus the scheme's {e storage-fault} envelope, inside
    which it must stay violation-free: the copy schemes get crash-torn
    writes, bitrot and disk replacement; the voting flavours get bitrot
    only (torn crashes and replacement take a site down, and any site
    failure is already outside the one-round-write voting envelope). *)

val overload_env : ?seed:int -> Blockrep.Types.scheme -> env
(** The {e overload + gray-failure} envelope, inside which every scheme —
    voting included — must stay violation-free: all sites run
    {!Net.Service_model.default}, the client stack has deadlines, hedged
    reads, circuit breakers and admission control enabled, and the
    schedule carries slow-site episodes, client bursts and queue floods.
    None of these events takes a site down or destroys an acknowledged
    message, so correctness must hold while tail latency degrades.  Site
    failures and partitions are off. *)

val wire_env : ?seed:int -> Blockrep.Types.scheme -> env
(** The {e hostile-bytes} envelope, inside which every scheme must stay
    violation-free: frames cross the network encoded and the injector
    damages their bytes at the {!supported_corruption} ambient rates on
    top of {!supported_faults}.  The hardened ingress (CRC/shape
    rejection, bounded link-layer redelivery, poison-frame quarantine)
    must absorb all of it; on top of the oracle verdict, the run fails
    with a [wire-unconserved] violation if any injected corruption went
    unaccounted for by the ingress conservation identity.  Persistent
    corruptor links stay off: they turn corruption into message loss,
    which is outside every envelope (see {!Wire_corrupt}). *)

val supported_faults : Net.Faults.profile
(** duplicate 0.05, reorder 0.05 with jitter ~ U(0,1), extra delay 0.1 —
    and no drops. *)

val supported_corruption : Net.Faults.corruption
(** Ambient byte damage of {!wire_env}: bit flip 0.02; truncate, garbage
    prefix/suffix and splice 0.01 each.  At these rates the bounded
    redelivery budget makes residual frame loss negligible
    (~[rate^(budget+1)]). *)

(** {1 Schedules} *)

val generate_schedule : env -> schedule
(** The seed-derived schedule for [env] (empty when every process is
    disabled). *)

val schedule_to_string : schedule -> string
(** One event per line ([@time fail 2], [@time partition 0 1 | 2], ...);
    round-trips through {!schedule_of_string} for replay. *)

val schedule_of_string : string -> (schedule, string) result

val pp_event : Format.formatter -> float * event -> unit
val pp_schedule : Format.formatter -> schedule -> unit

(** {1 Running} *)

type outcome = {
  seed : int;
  schedule : schedule;  (** the schedule that was played *)
  history : History.t;
  oracle : Violation.t list;
  invariants_mid : Violation.t list;
      (** scan after the workload drained, before forced repairs — the
          partial-failure state the run ended in *)
  invariants_final : Violation.t list;
      (** scan after every site repaired, the network healed and recovery
          completed *)
  ops_ok : int;
  ops_failed : int;
  faults_injected : int;
  storage : Blockdev.Durable_store.counters;
      (** summed storage-fault counters across all sites: faults injected
          (torn writes, bitrot, replacements) and the repair work the
          protocols did about them (scrub replays, quarantines, peer
          repairs, refused installs) *)
  end_time : float;
}

val violations : outcome -> Violation.t list
(** Oracle + both scans, in that order. *)

val passed : outcome -> bool

val cluster_of_env : env -> Blockrep.Cluster.t
(** A fresh cluster for [env] (applies the weakened quorum and fault
    profile when set). *)

val run_against : env -> cluster:Blockrep.Cluster.t -> schedule:schedule -> outcome
(** Play [schedule] and the client workload against an existing cluster —
    one with probes already attached, or one resumed after earlier use.
    Events scheduled before the cluster's current virtual time are
    skipped.  The oracle baseline is captured from the cluster's stores
    at entry, so a used cluster's prior contents are legal initial
    reads. *)

val run : ?schedule:schedule -> env -> outcome
(** Fresh cluster + generated (or given) schedule + workload + verdict. *)

(** {1 Shrinking and sweeping} *)

val shrink : ?max_runs:int -> env -> schedule -> schedule * outcome
(** Greedy ddmin-style minimization: repeatedly drop chunks of the
    schedule while some violation still reproduces (failure/repair and
    partition events are individually removable — a repair of an up site
    or a stray heal is a no-op).  Returns the smallest failing schedule
    found within [max_runs] (default 300) re-runs and its outcome; if the
    given schedule does not fail at all, returns it unchanged. *)

type run_summary = {
  run_seed : int;
  run_passed : bool;
  run_violations : int;
  run_ops_ok : int;
  run_ops_failed : int;
  run_faults : int;
  run_storage_faults : int;  (** torn writes + bitrot + disk replacements *)
}

type sweep_result = {
  sweep_env : env;
  summaries : run_summary list;
  failing : int list;  (** seeds whose run had any violation *)
  first_failure : (int * outcome) option;
  shrunk : (schedule * outcome) option;
      (** minimized schedule of the first failing seed (when shrinking) *)
}

val sweep :
  ?shrink_failures:bool ->
  ?max_shrink_runs:int ->
  ?shards:int ->
  env ->
  seeds:int list ->
  sweep_result
(** Run [{env with seed}] for every seed; shrink the first failure
    (default on).  [shards] (default 1) runs the seeds on up to that many
    parallel domains (OCaml 5; sequential on 4.14): every run is
    self-contained, results merge in seed-list order, and [first_failure]
    is still the first failing seed of the {e list}, so the result is
    bit-identical across shard counts. *)
