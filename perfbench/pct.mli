(** Percentile selection with a tail-size rule.

    A percentile is reported only when at least {!min_beyond} samples lie
    beyond it: a p99 of 500 samples is decided by five values and says
    little, so it is refused rather than printed. *)

type pick = {
  value : float;
  samples : int;  (** samples the percentile was taken over *)
  beyond : int;  (** samples strictly after it in sorted order *)
}

val min_beyond : int
(** 10. *)

val sorted : float array -> float array
(** A sorted copy. *)

val select : float array -> float -> pick option
(** [select sorted q] is the nearest-rank [q]-quantile of an
    ascending-sorted array, or [None] when fewer than {!min_beyond}
    samples lie beyond it (or the array is empty).  Raises
    [Invalid_argument] unless [0 < q < 1]. *)

val select_mid : float array -> float -> pick option
(** Like {!select}, under the same tail rule, but the value is Parzen's
    mid-quantile: each distinct value stands at the middle of the ranks
    its copies occupy, and the quantile interpolates linearly between
    neighbouring distinct values.  Data that takes few distinct values
    (virtual latencies are multiples of the hop latency) then gives a
    quantile that moves smoothly with the share of slow samples instead
    of jumping between neighbours. *)

val median : float list -> float
(** Median (mean of the two middle values for an even count).  Raises
    [Invalid_argument] on the empty list. *)
