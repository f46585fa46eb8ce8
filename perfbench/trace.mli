(** In-memory spans around the calls the benchmark makes into each layer.

    A span has a name, a layer, start and end instants on the monotonic
    clock, the span that was open when it began (its parent) and an op
    id shared by every span of one client operation.  A layer's self
    time is its spans' durations minus the part covered by their child
    spans.  Spans stay in memory and are written once, as Chrome
    trace-event JSON, when the run ends.

    A recorder belongs to one lane: each lane builds its own and returns
    it {!freeze}d, and the caller {!merge}s them. *)

type span = {
  id : int;
  parent : int;  (** [-1] at top level *)
  op : int;  (** [-1] outside any client operation *)
  name : string;
  layer : string;
  tid : int;  (** the recorder's row in the trace viewer *)
  t0 : int;
  t1 : int;
}

type t

val create : tid:int -> unit -> t

val span : t -> ?op:int -> layer:string -> string -> (unit -> 'a) -> 'a
(** [span t ~layer name f] runs [f] inside a span.  [op] defaults to the
    enclosing span's op id. *)

val opt : t option -> ?op:int -> layer:string -> string -> (unit -> 'a) -> 'a
(** {!span} when tracing, plain [f ()] otherwise. *)

type frozen = { spans : span list; self_ns : (string * int) list }

val freeze : t -> frozen
val empty : frozen
val merge : frozen -> frozen -> frozen

val self_s : frozen -> string -> float
(** Self seconds of one layer (0 when it has no span). *)

val write_chrome : string -> frozen -> unit
(** Chrome trace-event JSON, with each layer's self seconds beside the
    events. *)
