(** Shared machinery of the three consistency protocols.

    A runtime owns the simulation engine, the network, and one {!site}
    record per replica.  Protocols implement coordinator logic as
    {e rounds}: broadcast (or send) a request, declare which sites are
    expected to answer, and get a completion callback once every expected
    reply arrived — or the timeout fired, or the coordinator itself died.

    The expected-responder set is computed from the network's current
    liveness, which models the perfect failure detection that the paper's
    fail-stop, reliable, partition-free environment provides; the timeout
    exists only to resolve races where a site fails between request and
    reply. *)

module Transport : sig
  include module type of Net.Network.Make (Wire)
end

type site = {
  id : int;
  durable : Blockdev.Durable_store.t;
      (** the site's disk, with checksums and intention journal; faults are
          injected and scrubbed here *)
  store : Blockdev.Store.t;
      (** [Durable_store.store durable] — the underlying block/version
          arrays, for unchecked reads.  All writes must go through
          [durable]. *)
  mutable state : Types.site_state;
  mutable w : Types.Int_set.t;
      (** was-available set; persistent across failures (kept on disk with
          the blocks, exactly as the version numbers are) *)
  cache : Wire.site_info option array;
      (** freshest self-description heard from each peer; volatile.  Doubles
          as the record of which peers are known comatose, which drives the
          deferred recovery replies sent on becoming available. *)
  mutable repairing : bool;  (** a version-vector exchange is in flight *)
}

type outcome =
  | Complete  (** every expected reply arrived *)
  | Timeout  (** the timeout fired first; replies may be partial *)
  | Aborted  (** the coordinator failed mid-round *)

type t

val create : Config.t -> t
(** Builds engine, network and sites (all initially [Available] with zeroed
    stores); installs the network receive handlers.  {!set_dispatch} must be
    called before any message can be processed. *)

val config : t -> Config.t
val engine : t -> Sim.Engine.t
val net : t -> Transport.t
val traffic : t -> Net.Traffic.t
val n_sites : t -> int
val site : t -> int -> site
val sites : t -> site array
val rng : t -> Util.Prng.t

val set_dispatch : t -> (site -> from:int -> Wire.t -> unit) -> unit
(** Install the protocol's message handler.  It runs only at sites that are
    up at delivery time. *)

val on_state_change : t -> (int -> Types.site_state -> unit) -> unit
(** Subscribe to site state transitions (monitor, liveness tracking). *)

val set_state : t -> int -> Types.site_state -> unit
(** Change a site's protocol state and notify subscribers.  No-op if the
    state is unchanged. *)

val make_info : t -> int -> Wire.site_info
(** Snapshot a site's self-description for recovery messages. *)

val cache_info : t -> int -> Wire.site_info -> unit
(** Record [info] in site [i]'s peer cache (keyed by [info.origin]). *)

(** {1 Rounds} *)

val begin_round :
  ?deadline:float ->
  t ->
  coordinator:int ->
  expected:Types.Int_set.t ->
  on_complete:(outcome -> (int * Wire.t) list -> unit) ->
  int
(** Open a round and return its rid.  Completion fires asynchronously (via
    the engine) even when [expected] is empty.  The reply list is in arrival
    order.

    [deadline] (absolute virtual time) clamps the round's timeout to
    [min op_timeout (deadline - now)]: replies landing after the budget
    would be useless, so the round gives up exactly when the operation
    must.  An already-expired deadline times the round out on the next
    tick — callers should guard with {!past_deadline} and not send at
    all, which the round-start probes let tests enforce. *)

val past_deadline : t -> float option -> bool
(** [past_deadline t (Some d)] iff the clock reached [d].  [None] never
    expires. *)

val on_round_start :
  t -> (coordinator:int -> deadline:float option -> expected:Types.Int_set.t -> unit) -> unit
(** Subscribe to round openings (test instrumentation: the deadline
    property test asserts no round with a deadline ever opens at or past
    it).  Probes fire synchronously inside {!begin_round}, before any
    request is sent. *)

val reply : t -> rid:int -> from:int -> Wire.t -> unit
(** Record a reply for a round; ignored when the round is gone (late reply
    after timeout — harmless by design). *)

val round_active : t -> int -> bool

(** {1 Failure injection} *)

val set_w : t -> int -> Types.Int_set.t -> unit
(** Update a site's was-available set, both in memory and in the disk's
    journaled W record (so a crash between a commit and this metadata
    write is caught by the scrub, not silently survived). *)

val fail_site : t -> int -> unit
(** Fail-stop: the durable store takes its crash (an armed torn write
    fires here), the network stops delivering to and from the site, its
    volatile state (peer cache, interests, in-flight rounds it
    coordinates) is lost, and its protocol state becomes [Failed].  Store,
    version numbers and was-available set survive on disk.  No-op when
    already failed. *)

val repair_site : t -> int -> (site -> unit) -> unit
(** Bring a failed site back up: run the durable store's recovery scrub
    (replay/discard torn intentions, count quarantined blocks), reload the
    was-available set from disk (an absent W record means every site),
    then run the protocol's [on_repair] hook (which decides whether the
    site becomes comatose or immediately available).  No-op when the site
    is not failed. *)

(** {1 Messaging shortcuts} *)

val send : t -> op:Net.Message.operation -> from:int -> dst:int -> Wire.t -> unit
val broadcast : t -> op:Net.Message.operation -> from:int -> Wire.t -> unit

val up_peers : t -> int -> Types.Int_set.t
(** Sites up and reachable from the given site, excluding it. *)

val peers_matching : t -> int -> (site -> bool) -> Types.Int_set.t
(** Up, reachable peers additionally satisfying a predicate on their site
    record (e.g. protocol state availability). *)

(** {1 Robustness plumbing}

    All of it dormant unless the config enables the corresponding feature:
    without a service model {!server} is [None] everywhere, without a
    breaker config {!breaker} is [None] and {!breaker_allows} always
    [true]. *)

val server : t -> int -> Sim.Server.t option
(** Site [i]'s work queue, when the config installed a service model. *)

val breaker : t -> coordinator:int -> peer:int -> Breaker.t option
(** [coordinator]'s breaker for [peer], when breakers are configured. *)

val breaker_allows : t -> coordinator:int -> peer:int -> bool
(** Whether the coordinator should currently send to the peer; [true]
    when breakers are off.  Advisory — call sites must keep the scheme's
    safety rule satisfied regardless. *)

val breaker_trips : t -> int
(** Total closed-to-open transitions across all coordinator/peer pairs. *)
