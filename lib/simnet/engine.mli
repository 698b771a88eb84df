(** Synchronous message-passing engine (the model of Section 1.1).

    A round has three steps: every node (1) receives the messages sent to it
    in the previous round, (2) computes locally, (3) sends one message per
    destination it chooses.  The engine drives the mailbox plumbing; a
    protocol driver supplies the compute step.

    Blocking semantics under DoS-attacks (Section 1.1): a message sent from
    [v] to [w] in round [i] is received and processed by [w] iff [v] is
    non-blocked in round [i] and [w] is non-blocked in rounds [i] and
    [i + 1].  The engine enforces all three conditions; drivers only need to
    refrain from computing on behalf of currently blocked nodes (and
    [deliver_and_step] below does even that for you).

    On top of the blocking rule the engine can apply a deterministic
    {!Faults.plan}: per-message drop, duplication, bounded delay and inbox
    reordering, plus node-level crash-stop / crash-recover schedules.
    Faults fire at the delivery boundary, after the blocking rule, and draw
    from the plan's own random stream, so the protocol's coin flips are
    unperturbed and same-seed runs stay byte-identical.  Each applied fault
    emits a typed {!Trace.Fault} event; without a plan the overhead is one
    [option] check per delivery.

    {2 Round core}

    Sends stage into one buffer of contiguous grow-once planes (Bigarrays
    for the int columns), and delivery merges it with a counting sort — a
    linear sweep instead of n random mailbox hops.  Rounds run on the
    calling domain.

    Inbox order contract: a destination receives its messages in send
    order.  Under a fault plan, messages released from a delay fault come
    first and a reorder fault may then permute the inbox; both draw from
    the plan's stream, so same-seed runs stay byte-identical.

    Typical use:
    {[
      let eng = Engine.create ~n ~msg_bits () in
      for _ = 1 to rounds do
        Engine.set_blocked eng (adversary ());
        Engine.deliver_and_step eng (fun ~round ~me ~inbox -> ... sends ...)
      done
    ]} *)

type 'msg t

type losses = {
  dropped : int;  (** messages killed by a drop fault *)
  duplicated : int;  (** duplicate copies injected by a duplication fault *)
  delayed : int;  (** messages held back by a delay fault (later delivered) *)
  crash_lost : int;  (** messages lost to a crashed endpoint *)
  subset_lost : int;
      (** inbox messages discarded because the destination did not compute in
          the delivery round ({!deliver_and_step_subset}) *)
}

val create :
  ?metrics:bool ->
  ?trace:Trace.t ->
  ?faults:Faults.plan ->
  n:int ->
  msg_bits:('msg -> int) ->
  unit ->
  'msg t
(** [msg_bits] prices each message for communication-work accounting.
    [metrics] defaults to [true].  [trace] (default {!Trace.null}) receives
    one [Round] event per completed round, carrying the round's metrics
    summary and the size of its blocked set; with the null trace the
    instrumentation is a single boolean check per round.  [faults] installs
    a fault plan ({!Faults.install}); omitting it, or passing a plan for
    which {!Faults.is_none} holds, runs the fault-free engine. *)

val n : _ t -> int
val round : _ t -> int
(** Index of the current round, starting at 0. *)

val losses : _ t -> losses
(** Running totals of injected faults and lost inboxes since creation. *)

val fault_plan : _ t -> Faults.plan option
(** The installed plan, if any ([None] when fault-free). *)

val set_blocked : _ t -> (int -> bool) -> unit
(** Install the blocked-set for the current round.  Must be called before
    the round's delivery/compute.  The predicate applies to this round only:
    after the round completes it resets to "nobody blocked", so an adversary
    that attacks every round must call this every round.

    Raises [Invalid_argument] if any [send] already happened this round:
    queued messages were filtered against the old blocked-set, so swapping
    it mid-round would silently mis-apply the blocking rule. *)

val is_blocked : _ t -> int -> bool

val is_crashed : _ t -> int -> bool
(** Whether the node is currently crash-stopped by the fault plan (always
    [false] without one).  Crashed nodes neither send, receive, nor
    compute; unlike blocking, every message lost to a crash is counted in
    {!losses}. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Queue a message during the current round; it is delivered at the start
    of the next round, subject to the blocking rule.  Sends from a currently
    blocked [src] are dropped immediately (and not charged); sends touching
    a crashed endpoint are dropped and counted as [crash_lost]. *)

val deliver_and_step :
  'msg t ->
  (round:int -> me:int -> inbox:(int * 'msg) list -> unit) ->
  unit
(** Run one full round: deliver last round's messages, invoke the compute
    function for every non-blocked, non-crashed node (inbox pairs are
    [(sender, msg)] in send order, messages released from a delay fault
    first; see the inbox order contract above), then advance the
    round counter.  The compute function performs its sends via [send].
    Compute runs sequentially over ascending node ids, so the callback may
    freely share state. *)

val deliver_and_step_subset :
  'msg t ->
  nodes:int array ->
  (round:int -> me:int -> inbox:(int * 'msg) list -> unit) ->
  unit
(** Same, but only the given nodes compute.  Messages delivered to a node
    that does not compute this round are lost, matching the synchronous
    model where an unprocessed inbox is overwritten next round; each such
    loss is counted as [subset_lost] and summarized per round in an
    ["engine/subset_lost"] trace note. *)

val metrics : _ t -> Metrics.t
(** Raises [Invalid_argument] if the engine was created with
    [~metrics:false]. *)
