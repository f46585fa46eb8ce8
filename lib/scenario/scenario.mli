(** A little language for replication scenarios.

    Distributed-systems bugs live in specific interleavings of failures,
    repairs and operations; this module lets those interleavings be written
    down as plain text, executed deterministically against a cluster, and
    asserted on — the test suite ships a corpus of them.

    Format: one directive or event per line; [#] starts a comment.

    {v
    # header directives (before any event)
    scheme nac              # voting | ac | nac | dynamic
    sites 3
    blocks 8                # optional, default 8
    seed 42                 # optional
    latency 0.5             # optional constant one-hop latency
    witnesses 2             # optional, voting only
    track-liveness true     # optional, AC only
    horizon 200             # optional; default last event time + 100
    fault-drop 0.05         # optional message-fault knobs (default 0):
    fault-duplicate 0.01    #   per-delivery probabilities...
    fault-reorder 0.1
    fault-jitter 2.0        #   ...extra delay ~ Uniform(0, jitter) on reorder
    fault-delay 0.25        #   deterministic extra latency per delivery
    service-model true      # optional: bounded per-site work queues with
                            #   the default service-time profile (needed
                            #   for slow-site / queue-flood to take effect)

    # timed events
    @10   fail 1
    @11   write 0 3 hello         # site, block, payload token
    @12   expect-read 0 3 hello   # must succeed with this payload
    @13   expect-write-fail 1 0   # site is down: must be refused
    @20   repair 1
    @25   partition 0 1 | 2
    @30   heal
    @40   crash-torn 1              # fail site 1, tearing its last write
                                    # (the recovery scrub replays it)
    @45   bitrot 2 3                # silently rot site 2's copy of block 3
    @50   disk-replace 1            # swap site 1's disk for a blank one
                                    # (fails the site; repair rebuilds it)
    @60   slow-site 1 10            # gray failure: site 1 serves 10x slow
    @70   slow-site 1 1             # ...and recovers to full speed
    @75   burst 0 30                # 30 back-to-back client reads at site 0
    @80   queue-flood 2 48          # 48 junk jobs into site 2's work queue
    @90   expect-state 1 available
    @95   expect-available true
    @99   expect-consistent       # available stores agree
    @100  expect-inconsistent     # ...or assert a documented failure mode
    @101  check-invariants        # full Check.Invariant scan (run at a
                                  # quiescent point; every violation is
                                  # reported as an expectation failure)
    v} *)

type t
(** A parsed scenario. *)

type outcome = {
  passed : bool;
  failures : string list;  (** one line per violated expectation *)
  events_run : int;
  cluster : Blockrep.Cluster.t;  (** final state, for further inspection *)
}

val parse : string -> (t, string) result
(** Parse scenario text; [Error] pinpoints the offending line.  The
    header must make a valid {!Blockrep.Config.t}, and every site and
    block an event names must exist in it, so {!run} never raises on a
    parsed scenario. *)

val parse_file : string -> (t, string) result

val run : t -> outcome
(** Build the cluster, schedule every event, run the engine to the horizon
    and collect expectation failures. *)

val check : string -> (unit, string list) result
(** [parse] + [run] in one step: [Ok ()] when every expectation held,
    [Error failures] (or a singleton parse error) otherwise. *)
