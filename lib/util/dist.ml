type t =
  | Constant of float
  | Exponential of float
  | Erlang of int * float
  | Uniform of float * float

let exponential ~rate g =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  -.log (Prng.float_pos g) /. rate

let erlang ~k ~rate g =
  if k < 1 then invalid_arg "Dist.erlang: k must be >= 1";
  if rate <= 0.0 then invalid_arg "Dist.erlang: rate must be positive";
  (* Product of k uniforms under one log avoids k calls to log. *)
  let rec product acc i = if i = 0 then acc else product (acc *. Prng.float_pos g) (i - 1) in
  -.log (product 1.0 k) /. rate

let sample d g =
  match d with
  | Constant c -> c
  | Exponential rate -> exponential ~rate g
  | Erlang (k, rate) -> erlang ~k ~rate g
  | Uniform (lo, hi) -> lo +. ((hi -. lo) *. Prng.float g)

let mean = function
  | Constant c -> c
  | Exponential rate -> 1.0 /. rate
  | Erlang (k, rate) -> float_of_int k /. rate
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0

let coefficient_of_variation = function
  | Constant c -> if c = 0.0 then nan else 0.0
  | Exponential _ -> 1.0
  | Erlang (k, _) -> 1.0 /. sqrt (float_of_int k)
  | Uniform (lo, hi) ->
      let m = (lo +. hi) /. 2.0 in
      if m = 0.0 then nan else (hi -. lo) /. (sqrt 12.0 *. m)

let validate d =
  match d with
  | Constant c when not (Float.is_finite c && c >= 0.0) -> Error "constant must be finite and non-negative"
  | Exponential rate when not (Float.is_finite rate && rate > 0.0) ->
      Error "exponential rate must be finite and positive"
  | Erlang (k, _) when k < 1 -> Error "erlang shape must be >= 1"
  | Erlang (_, rate) when not (Float.is_finite rate && rate > 0.0) ->
      Error "erlang rate must be finite and positive"
  | Uniform (lo, hi) when not (Float.is_finite lo && Float.is_finite hi) -> Error "uniform bounds must be finite"
  | Uniform (lo, hi) when lo > hi -> Error "uniform bounds must satisfy lo <= hi"
  | Uniform (lo, _) when lo < 0.0 -> Error "uniform support must be non-negative"
  | Constant _ | Exponential _ | Erlang _ | Uniform _ -> Ok d

let pp ppf = function
  | Constant c -> Format.fprintf ppf "constant(%g)" c
  | Exponential rate -> Format.fprintf ppf "exp(rate=%g)" rate
  | Erlang (k, rate) -> Format.fprintf ppf "erlang(k=%d, rate=%g)" k rate
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform[%g, %g)" lo hi
