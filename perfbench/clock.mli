(** Host clocks for the benchmark: monotonic wall time and process CPU
    time, measured separately. *)

val wall_ns : unit -> int
(** Monotonic wall clock, in nanoseconds from an arbitrary origin. *)

val cpu_s : unit -> float
(** Process CPU time (user + system) in seconds, summed over every
    domain of the process. *)

type mark
type lap = { wall_s : float; cpu_s : float }

val start : unit -> mark
val stop : mark -> lap
(** Wall and CPU seconds since the mark. *)

val time : (unit -> 'a) -> 'a * lap
