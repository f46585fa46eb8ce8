(** Random-variate samplers for the distributions used in the evaluation.

    Section 4 of the paper assumes Poisson site failures and repairs
    (exponential holding times with failure rate λ and repair rate μ);
    Section 4.4 discusses repair-time distributions with coefficient of
    variation below one, which we model with Erlang-k. *)

type t =
  | Constant of float  (** degenerate distribution, always the same value *)
  | Exponential of float  (** [Exponential rate], mean [1/rate] *)
  | Erlang of int * float
      (** [Erlang (k, rate)]: sum of [k] exponentials of rate [rate]; mean
          [k/rate], coefficient of variation [1/sqrt k < 1] for [k > 1] *)
  | Uniform of float * float  (** uniform on [\[lo, hi)] *)

val sample : t -> Prng.t -> float
(** [sample d g] draws one variate.  All variates are non-negative for the
    distributions accepted by {!validate}. *)

val mean : t -> float
(** Analytic mean of the distribution. *)

val coefficient_of_variation : t -> float
(** Analytic ratio of standard deviation to mean ([nan] for a zero-mean
    constant). *)

val validate : t -> (t, string) result
(** [validate d] checks the parameters (finite values, positive rates,
    [k >= 1], [lo <= hi], non-negative support) and returns [Error] with
    a human-readable reason otherwise. *)

val exponential : rate:float -> Prng.t -> float
(** Direct exponential sampler by inversion; [rate] must be positive. *)

val erlang : k:int -> rate:float -> Prng.t -> float
(** Direct Erlang-[k] sampler (sum of [k] exponentials). *)

val pp : Format.formatter -> t -> unit
