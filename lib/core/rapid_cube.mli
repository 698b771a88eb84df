(** The one Algorithm 2 loop (Section 3.2) behind {!Rapid_hypercube} and
    {!Rapid_kary}, and the plain d-round token walk of Section 2.3 they
    compare against.

    A cube here is [n] nodes with [d] coordinates and a [redraw u j] that
    returns [u] with coordinate [j] re-randomized, drawing from the
    caller's stream: a coin and a flip on the binary cube, a uniform digit
    on the k-ary cube.  Everything else — the segment-doubling merge, the
    request and serve rounds, the message accounting — is the same on
    both, so it lives here once.

    The state is flat: every (node, coordinate) multiset is a slice of one
    int arena, a round's requests are two int arrays counting-sorted by
    server, and a run allocates nothing per draw or message.  Both
    functions consume [redraw] and the stream in a fixed order, so the
    same seed gives the same result. *)

val run :
  trace:Simnet.Trace.t ->
  eps:float ->
  c:float ->
  rng:Prng.Stream.t ->
  n:int ->
  d:int ->
  redraw:(int -> int -> int) ->
  Sampling_result.t
(** One attempt of Algorithm 2 with the schedule
    {!Params.schedule_hypercube}; [trace] receives one [Round] event per
    communication round.  Each node's samples come out in uniformly random
    order.  Raises [Invalid_argument] if the schedule ever grows from one
    iteration to the next. *)

val run_plain :
  trace:Simnet.Trace.t ->
  k:int ->
  n:int ->
  d:int ->
  redraw:(int -> int -> int) ->
  Sampling_result.t
(** Each node releases [k] tokens; in round [i] every token's holder
    computes [redraw holder i] and forwards the token there unless it is
    the holder itself; a final round reports endpoints to the origins.
    [rounds = d + 1]. *)
