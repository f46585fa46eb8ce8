(** A simulated site-to-site network with fail-stop semantics.

    The network is a functor over the protocol's message type so that the
    replication layer keeps a typed interface while this module stays
    protocol-agnostic.  It models the two environments of Section 5:

    - {b Multicast}: one transmission reaches every destination, so a
      broadcast costs a single high-level transmission;
    - {b Unicast} ("unique addressing"): a broadcast costs one transmission
      per remote site, up or not — the sender cannot know.

    Delivery is reliable and FIFO-per-latency-draw by default, matching the
    paper's "reliable message delivery" assumption; messages to failed sites
    vanish (fail-stop receivers), and optional partitions let adversarial
    tests exercise the one scenario where available copy is unsafe.  An
    optional {!Faults} injector relaxes the reliability assumption per link
    (drop / duplicate / reorder / extra delay) for robustness studies. *)

module type PAYLOAD = sig
  type t

  val category : t -> Message.category
  (** Category under which a payload's transmission is accounted. *)

  val size : t -> int
  (** Payload size in bytes, for the byte-level accounting of
      {!Traffic} on the in-heap path.  Encoded delivery charges the
      length of the {!encode} frame instead, so the two paths charge alike
      exactly when [size p = Bytes.length (encode p)]. *)

  val encode : t -> Bytes.t
  (** The payload's wire frame, for encoded delivery.  Must round-trip:
      [decode_frame (encode p)] is [Ok p]. *)

  val decode_frame : Bytes.t -> (t, Message.reject) result
  (** Decode one wire frame, mapping every decoder error onto a
      {!Message.reject} class.  Must {e never} raise — arbitrary bytes
      reach it once byte-level fault injection is on. *)
end

type mode = Multicast | Unicast

val mode_to_string : mode -> string

type quarantine = { threshold : int; cooldown : float }
(** Poison-frame quarantine policy: after [threshold] consecutive decode
    failures from one sender, the receiver discards that link's frames
    {e undecoded} for [cooldown] simulated seconds. *)

val default_quarantine : quarantine
(** threshold 3, cooldown 20.0. *)

val validate_quarantine : quarantine -> (quarantine, string) result

val redelivery_budget : int
(** Link-layer redelivery budget of encoded mode: how many times a
    CRC-rejected frame is re-sent from the sender's pristine copy (fresh
    latency and corruption draws) before the loss is left to the retry
    layer's timeouts.  Ambient corruption at per-frame rate [p] thus has
    residual loss [p^(budget+1)]; a persistent ([p = 1]) corruptor defeats
    the budget by design and is the circuit breaker's job. *)

module Make (P : PAYLOAD) : sig
  type t

  val create :
    ?faults:Faults.t ->
    Sim.Engine.t ->
    mode:mode ->
    latency:Util.Dist.t ->
    rng:Util.Prng.t ->
    n_sites:int ->
    t
  (** A network over sites [0 .. n_sites-1], all initially up, fully
      connected, with its own fresh {!Traffic.t}.  With no [faults] (the
      default) delivery is reliable, exactly as the paper assumes. *)

  val engine : t -> Sim.Engine.t
  val mode : t -> mode
  val n_sites : t -> int
  val traffic : t -> Traffic.t

  val faults : t -> Faults.t option
  (** The installed fault injector, if any (for counter reporting). *)

  val install_faults : t -> Faults.t -> unit
  (** Install (or replace) the fault injector; affects deliveries scheduled
      from now on.  Transmission accounting is never affected — Section 5
      charges the send, not the arrival. *)

  val set_encoded : t -> bool -> unit
  (** Toggle encoded delivery.  When on, every payload crosses the wire as
      its {!PAYLOAD.encode} frame and the receiver re-decodes it through
      the hardened ingress: injector byte damage, then quarantine, then
      {!PAYLOAD.decode_frame} — a rejected frame is counted per class in
      {!Traffic}, reported to the reject hook, redelivered while the
      {!redelivery_budget} lasts, and otherwise lost (the sender's round
      recovers by timeout).  Off (the default) is the legacy in-heap path:
      no encode, no decode, no extra rng draws — bit-identical.  With no
      corruption configured, encoded mode is also draw-for-draw identical
      to the legacy path (only CPU cost differs). *)

  val encoded : t -> bool

  val set_quarantine : t -> quarantine -> unit
  (** Replace the quarantine policy (validated; raises [Invalid_argument]
      on a bad one).  Affects strikes counted from now on. *)

  val quarantine_policy : t -> quarantine

  val set_reject_hook : t -> (dst:int -> from:int -> Message.reject -> unit) -> unit
  (** Called on every rejected frame with the receiver and claimed sender —
      the runtime feeds these into the receiver's per-peer circuit breaker
      so a persistently corrupting link trips open like a dead peer. *)

  (** {2 Ingress counters (encoded mode)} *)

  val frames_retransmitted : t -> int
  (** Link-layer redeliveries triggered by rejected frames. *)

  val quarantine_trips : t -> int
  (** Times some (receiver, sender) link entered quarantine. *)

  val corrupt_rejected : t -> int
  (** Corrupted deliveries the decoder caught. *)

  val corrupt_quarantined : t -> int
  (** Corrupted deliveries discarded undecoded by quarantine. *)

  val corrupt_survived : t -> int
  (** Corrupted deliveries the decoder nevertheless accepted (a splice
      that reproduced a valid frame); the decoded payload is a valid
      frame some site really sent, never garbage. *)

  val corruption_conserved : t -> bool
  (** The ingress conservation identity: every corruption the injector
      counted is rejected, quarantined or survived — nothing silently
      uncounted.  Holds at every instant, not only after a drain, because
      damage and classification happen in one ingress step. *)

  val install_service : t -> Service_model.t -> rng:Util.Prng.t -> unit
  (** Put a bounded single-server queue ({!Sim.Server}) in front of every
      site: deliveries then occupy the destination's processor for a draw
      from the payload category's service distribution, and a full queue
      sheds the message (the sender sees silence, as with loss).  [rng]
      must be a stream of its own — service sampling never touches the
      latency stream, so enabling the model leaves message timing draws
      unchanged.  Without this call the legacy instant-service path runs
      byte-identically. *)

  val service : t -> Service_model.t option

  val server : t -> int -> Sim.Server.t option
  (** Site [id]'s work queue, when a service model is installed — for
      per-site depth/latency/shed reporting and chaos instrumentation. *)

  val set_rate_factor : t -> int -> float -> unit
  (** Degrade (or heal) one site's processor: multiplies every service
      time drawn from now on (10.0 = the canonical gray failure).  No-op
      without a service model. *)

  val flood_site : t -> int -> count:int -> unit
  (** Stuff [count] no-op jobs into a site's queue (the [queue-flood]
      chaos event); overflow sheds.  No-op without a service model. *)

  val submit_client : t -> site:int -> (unit -> unit) -> [ `Direct | `Queued | `Shed ]
  (** Admit one client operation at a site.  [`Direct]: no service model —
      the caller must run the work itself, synchronously (legacy path).
      [`Queued]: accepted; the work fires when the processor reaches it.
      [`Shed]: queue full, work refused and never run. *)

  val total_shed : t -> int
  (** Jobs shed across all site queues (messages and client admissions). *)

  val register : t -> id:int -> (from:int -> P.t -> unit) -> unit
  (** [register t ~id handler] installs the receive handler of site [id];
      replaces any previous handler. *)

  val set_up : t -> int -> bool -> unit
  (** Mark a site up or down.  A down site receives nothing: messages
      addressed to it while down never materialise, and messages already in
      flight when it goes down are dropped at delivery time. *)

  val is_up : t -> int -> bool

  val up_sites : t -> int list
  (** Sites currently up, ascending. *)

  val send : t -> op:Message.operation -> from:int -> dst:int -> P.t -> unit
  (** One point-to-point transmission (always accounted).  Raises
      [Invalid_argument] if the sender is down — protocols must not speak
      for dead sites — or if [from = dst]; local work is free. *)

  val broadcast : t -> op:Message.operation -> from:int -> P.t -> unit
  (** Transmission to every other site: accounted as 1 (multicast) or
      [n_sites - 1] (unicast). *)

  val partition : t -> int list list -> unit
  (** [partition t groups] splits connectivity: two sites communicate iff
      some group contains both.  Sites absent from every group are isolated.
      Replaces any previous partition. *)

  val heal : t -> unit
  (** Remove any partition; full connectivity again. *)

  val reachable : t -> int -> int -> bool
  (** Whether a message sent now from the first site can reach the second
      (ignores up/down state; pure connectivity). *)

  val messages_delivered : t -> int
  (** Messages actually handed to a receiver (for tests: delivered <= sent
      destinations). *)
end
