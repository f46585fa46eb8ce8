(** Crash-faithful stable storage over {!Store}.

    {!Store} is an ideal disk.  This layer wraps it with the honest model
    the protocols must actually survive:

    - {b per-block CRC-32 checksums} over the (payload bytes, version)
      pair, kept in the {!Block_file} index and sealed only at this
      layer's commit points, so rotten or torn bytes are detected
      instead of served;
    - {b a two-phase intention journal} making a block write and its
      version update crash-atomic as a pair: the intention is serialized
      through the {!Codec} into a checksummed byte record, appended and
      committed (one commit-byte flip) before the in-place apply, so a
      crash tears at most one phase and the recovery {!scrub} — by
      actually decoding the record — either replays a committed
      intention or discards an unreadable/uncommitted one;
    - {b journaled metadata records} for the crash-critical protocol state
      that nominally "lives on disk": one was-available set W per site
      ({!set_w}) and one last-update group per block ({!set_group}).  An
      absent record means "every site", the conservative value a torn
      record write or a disk replacement falls back to;
    - {b seeded fault hooks}: torn writes armed at crash boundaries
      ({!arm_torn_write} + {!crash}), latent sector errors
      ({!inject_bitrot}), and whole-disk replacement ({!replace_disk},
      the paper's fresh-replica regeneration case).

    {b Quarantine discipline.}  A checksum-invalid block is {e quarantined}:
    its {!effective_version} is 0 (it claims nothing, votes nothing, and is
    never transferred to a peer), but its stored version number remains
    trustworthy — sector decay corrupts data bytes, not the separately
    journaled version table — and acts as a floor: the block only accepts
    verified replacement data at a version [>=] the stored one, so a
    quarantined copy can never be silently regressed below a version this
    disk acknowledged.  Offers below the floor are refused (counted in
    {!counters}) and the block stays quarantined until a current peer or a
    fresh write supersedes it.

    With no faults injected the layer is pass-through: every write goes
    straight to the store with a matching checksum, and behaviour is
    bit-identical to using {!Store} directly. *)

type t

(** How an armed crash tears the most recent intention (see {!crash}). *)
type tear =
  | Torn_apply
      (** The journal record committed but the in-place apply was torn:
          garbage data bytes under an intact version.  The scrub replays
          the intention exactly — an acknowledged write survives. *)
  | Torn_journal
      (** The journal append itself was torn: neither the intention nor
          the apply became durable.  The pre-image is restored and the
          scrub discards the half-written record — the write never
          happened, which is only crash-consistent for writes that were
          never acknowledged. *)

type counters = {
  mutable torn_writes : int;  (** armed tears that fired at a crash *)
  mutable bitrot_injected : int;
  mutable refused_installs : int;
      (** offers below a quarantined block's version floor *)
  mutable repaired_blocks : int;
      (** quarantined blocks healed by verified data *)
  mutable scrub_runs : int;
  mutable scrub_replayed : int;
  mutable scrub_discarded : int;
  mutable scrub_quarantined : int;
  mutable scrub_meta_reset : int;
  mutable disk_replacements : int;
  mutable journal_commits : int;
      (** intention records committed — the sync-write (fsync) points a
          real journal would pay for; see {!Sync_cost} *)
}

val zero_counters : unit -> counters
val accumulate_counters : counters -> counters -> unit
(** [accumulate_counters acc c] adds [c] into [acc] (cluster totals). *)

(** A metadata record: the site's was-available set, or one block's
    last-update group. *)
type slot = W | Group of Block.id

type scrub_report = {
  replayed : int;  (** committed intentions whose torn apply was redone *)
  discarded : int;  (** uncommitted intentions dropped *)
  quarantined : int;  (** checksum-invalid blocks awaiting peer repair *)
  meta_reset : slot option;  (** the torn metadata record reset to absent *)
}

val create : capacity:int -> t
(** A fresh durable store over a blank disk: zeroed blocks at version 0,
    all checksums valid. *)

val store : t -> Store.t
(** The underlying ideal store.  Reads through it are unchecked; writers
    must go through {!write}/{!apply_updates} or the checksums go stale. *)

val capacity : t -> int

(** {1 Checked access} *)

val checksum_ok : t -> Block.id -> bool
val effective_version : t -> Block.id -> int
(** The stored version when the checksum is valid, 0 otherwise. *)

val effective_versions : t -> Version_vector.t

val read_verified : t -> Block.id -> (Block.t * int) option
(** Contents and version, or [None] when quarantined. *)

val write : t -> Block.id -> Block.t -> version:int -> unit
(** Journalled write (intention append + commit + apply).  Raises
    [Invalid_argument] on a version regression over a {e verified} block,
    exactly like {!Store.write}; over a quarantined block a below-floor
    version is refused silently (counted) and an at-or-above-floor version
    heals the block. *)

val apply_updates : t -> (Block.id * int * Block.t) list -> unit
(** Install a recovery transfer set of {e verified peer data}: strictly
    newer entries install as in {!Store.apply_updates}, and an entry at a
    quarantined block's exact version floor repairs it in place.  Not
    journalled — a crash mid-recovery leaves the site failed and the next
    recovery re-runs the exchange. *)

val verified_blocks_newer_than : t -> Version_vector.t -> (Block.id * int * Block.t) list
(** {!Store.blocks_newer_than} restricted to checksum-valid blocks: a
    transfer never ships quarantined bytes to a peer. *)

(** {1 Journaled metadata}

    Each record holds a set of site ids.  [None] means the record is
    absent, which the protocols read as "every site": that is the value of
    a fresh disk, of a record whose last write tore (see {!scrub}), and of
    a replaced disk.  A too-large set only makes a protocol more cautious
    (AC waits for a larger closure, dynamic voting needs a larger
    majority), never less safe.  Setters write through the same intention
    journal as block writes, so a crash can tear them and the scrub can
    tell. *)

val w : t -> int list option
(** The site's was-available set. *)

val set_w : t -> int list -> unit

val group : t -> Block.id -> int list option
(** The last-update group recorded for a block. *)

val set_group : t -> Block.id -> int list -> unit

(** {1 Faults} *)

val arm_torn_write : ?mode:tear -> t -> unit
(** Arm the next {!crash} to tear the most recent intention (default
    {!Torn_apply}). *)

val armed : t -> tear option

val crash : t -> unit
(** The site lost power.  If a tear is armed it is applied to the journal's
    current slot (see {!tear}); otherwise the disk survives intact, as the
    paper assumes.  Idempotent once disarmed. *)

val inject_bitrot : t -> Block.id -> unit
(** Latent sector error: deterministically flip an actual byte of the
    block's region in the backing image, leaving its version intact.
    The corruption is silent until a checksum verification runs the
    real CRC over the damaged bytes. *)

val replace_disk : t -> unit
(** The medium was swapped: every block returns to verified (zero,
    version 0) and every metadata record to absent — the blank-disk /
    fresh-replica regeneration case. *)

(** {1 Recovery} *)

val scrub : t -> scrub_report
(** Recovery-time integrity pass, run before a repaired site rejoins:
    replay a committed-but-torn intention, discard an uncommitted one,
    reset a torn metadata record to absent, and count the quarantined
    blocks left for peer transfer to heal. *)

val last_scrub : t -> scrub_report option

val counters : t -> counters
(** Live counters for this store (shared, not a snapshot). *)
