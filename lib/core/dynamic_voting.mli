(** Dynamic voting at the block level (extension; cf. reference [10]).

    Static majority voting with [n] copies dies as soon as [⌈(n+1)/2⌉]
    sites are down.  Dynamic voting instead takes majorities of the
    {e last update group}: alongside each block's version number every
    site records the cardinality of the group that installed it.  An
    operation is allowed when, among the reachable sites, those holding
    the highest version form a strict majority {e of that recorded
    group}; each successful write then re-forms the group from every
    reachable site.  The group thus shrinks as sites fail (two sites,
    then the majority of those two...) and grows back as they return,
    letting service survive failure sequences that leave far fewer than
    half of the original sites up.

    Safety comes from the chain-intersection argument: every new group is
    a strict majority of the holders of the previous version, so any two
    operation quorums on the same block intersect in a current copy.  We
    use strict majorities only (no distinguished-site tie-break), so a
    group of two cannot shrink to one.

    As with static voting at the block level, there is no recovery
    protocol: a repaired site simply resumes voting, its stale blocks are
    outvoted, adopted back into the group (and rewritten) by the next
    write, or pulled on demand by a read. *)

type t

val create : Runtime.t -> t
(** Installs the protocol's message handler.  Every block's initial group
    is the full site set (everyone holds version 0), which is what an
    absent group record on disk means, so nothing is written per block. *)

val read :
  t -> ?deadline:float -> site:int -> block:Blockdev.Block.id -> (Types.read_result -> unit) -> unit
(** Serve a read under a last-group majority; pulls the current copy if
    the local one is stale.  Reads do not adjust groups.

    [deadline] (absolute virtual time) propagates into the vote and pull
    rounds, suppresses the internal No_quorum retry once expired, and
    makes an expired entry fail [Timed_out] without issuing anything. *)

val write :
  t ->
  ?deadline:float ->
  site:int ->
  block:Blockdev.Block.id ->
  Blockdev.Block.t ->
  (Types.write_result -> unit) ->
  unit
(** Write under a last-group majority; the new group is the set of
    reachable sites (all of which receive the block). *)

val on_repair : t -> int -> unit
(** No recovery: the site becomes available immediately. *)

val group_of : Runtime.t -> int -> Blockdev.Block.id -> int
(** [group_of rt site block]: the last-update-group cardinality that site
    [site]'s disk records for [block] (for tests and monitoring).  The
    record lives only on disk, so the runtime suffices; an absent record
    (never written, reset by the scrub after a tear, or on a replaced
    disk) counts as every site. *)

val service_available : t -> bool
(** The monitor predicate: for {e every} block, the up sites holding its
    globally newest version form a strict majority of its recorded
    group. *)
