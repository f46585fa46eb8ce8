(** How issued client operations ended.

    Every issued operation ends exactly one way: it succeeded, timed out
    at a deadline, was given up after its retries, was rejected by an
    overloaded site, or was shed at the device's admission gate.  Each
    way but success counts as a failure, so a refused request misses
    every latency limit. *)

type t = { issued : int; ok : int; timed_out : int; gave_up : int; rejected : int; shed : int }

val add : t -> t -> t

val failed : t -> int
(** [timed_out + gave_up + rejected + shed]. *)

val fail_frac : t -> float
(** [failed / issued]; raises [Invalid_argument] when nothing was
    issued. *)

val ok_frac : t -> float
(** [1 - fail_frac]. *)

val of_degradation : Blockrep.Reliable_device.degradation -> t
(** The device's own request counters. *)
