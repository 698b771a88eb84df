(** Periodic Chord maintenance as a gossip-style driver on
    {!Simnet.Runtime}: unsolicited per-node legs on a staggered cadence,
    no global epochs.

    Each available node [v] runs one maintenance slice every [period]
    rounds (slices staggered by node index, so load is spread evenly):

    - {b stabilize}: walk the successor list for the first contactable
      entry [s] (each probe is a retry-budgeted request/reply pair); adopt
      [s]'s predecessor as the new successor when it sits in the arc
      [(v, s)] and answers a probe; rebuild the rest of the list from the
      successor's own list; then notify the successor so it can adopt [v]
      as predecessor.  A node whose whole list is dead falls back to its
      fingers, and is counted isolated if those fail too.
    - {b fix_fingers}: refresh one finger per slice (round-robin) with a
      bounded {!Lookup.find} for [finger_start v i].
    - {b check_predecessor}: probe the predecessor and clear it on
      timeout.

    Every active round emits one ["chord/maintain"] trace span carrying
    the slice's activity counters (the vocabulary
    [trace_check --require 'chord/*'] validates). *)

type stats = {
  mutable stabilize_runs : int;
  mutable succ_adoptions : int;  (** successor-list head changed *)
  mutable succ_fallbacks : int;  (** successor recovered through a finger *)
  mutable isolated : int;  (** slices that found no live pointer at all *)
  mutable finger_probes : int;
  mutable finger_fixes : int;
  mutable pred_clears : int;
  mutable notifies : int;
  mutable joins : int;
  mutable join_failures : int;
  mutable msgs : int;
  mutable timeouts : int;
}

type t

val create :
  Ring.t ->
  rt:Simnet.Runtime.t ->
  ?period:int ->
  ?retry:Core.Retry.policy ->
  unit ->
  t
(** [period] defaults to 8 rounds; [retry] (default {!Core.Retry.fixed})
    bounds re-probes of an unresponsive contact within one slice.  Raises
    [Invalid_argument] if [period <= 0]. *)

val ring : t -> Ring.t
val stats : t -> stats

val tick : t -> avail:(int -> bool) -> unit
(** Run one round of staggered maintenance over the nodes that are alive
    and [avail], then advance the internal round counter.  Call once per
    simulation round, before serving that round's requests. *)

val join : t -> avail:(int -> bool) -> via:int -> int -> bool
(** (Re)join node [idx] through introducer [via]: look up the successor
    of [idx]'s id, install it (successor list from the owner's list,
    predecessor and fingers reset) and report success.  On failure the
    node keeps its stale tables for stabilization to repair — the
    crash-recover degradation mode. *)

val churn :
  t -> rng:Prng.Stream.t -> was_down:bool array -> down:bool array -> unit
(** Apply an epoch's churn draw: every node is alive iff not [down], and
    each node returning this epoch ([was_down] but not [down]) re-joins
    through an introducer picked on [rng] among the other live,
    uncrashed nodes (no pick, no re-join).  The one re-join path of
    {!Sim.run} and the request plane's Chord backend. *)
