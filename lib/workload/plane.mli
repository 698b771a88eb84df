(** The request plane: one round loop that serves any request policy on any
    overlay backend ({!Backend_intf.S}), under the full hostile
    environment — reconfiguration or a static baseline, a t-late blocking
    adversary ({!Attack}), coarse churn, and ordinary faults
    ({!Simnet.Faults}).

    {!Driver} (the §7 DHT / pub-sub client workload) and {!Social} (the
    five-class Reddit-style application) are two {!POLICY} values over
    this loop.  A policy decides only what differs between them: how
    requests are admitted, each class's budget, how one attempt executes
    against the backend, where the churn epochs come from, and which
    trace notes name the run.  Everything else lives here, once.

    Each round, in order: (1) {!Backend_intf.S.reconfigure}, (2) the
    adversary's delayed {!Backend_intf.S.observe}, (3) at a churn epoch
    boundary, a fresh churned-out server set drawn from the churn stream
    ({!Backend_intf.S.churn}, an [Adversary "churn"] event, then
    {!POLICY.on_churn}), (4) scheduled crash/recover transitions, (5) the
    blocked set (churn + crashes + {!Backend_intf.S.mark_attack}),
    (6) {!Backend_intf.S.begin_round}, one {!Backend_intf.S.maintain}
    slice and, every [period] rounds when the plan names one, a health
    note ({!Backend_intf.S.health}), (7) the policy's admissions, (8) one
    service attempt per pending request, (9) {!Backend_intf.S.emit_round}
    and the [Round] event.  Requests still pending after the last round
    are abandoned as timeouts at round [spec.rounds].

    An attempt rolls a request leg and a reply leg through the runtime's
    fault plan, draws an entry server from the service stream, then runs
    {!POLICY.execute}.  A failed attempt retries next round until its
    class's retry budget is spent (["failed"]) or the next attempt would
    start past [arrival + timeout] (["timeout"]).  A served request's
    latency is (attempt round - arrival) + service rounds; it misses the
    SLO when it exceeds its class's [slo].

    Determinism: the root stream of [seed] is split, in this order, into
    the backend, service, churn and attack streams; policies draw their
    own randomness from [(seed, purpose)]-keyed streams before the run.
    Runs are byte-identical for any [domains] value. *)

module Overlay : sig
  type mode = Backend_intf.mode = Reconfig | Static

  type chord_params = Backend_intf.chord_knobs = {
    fingers : int option;
    succs : int option;
    period : int option;
  }
  (** Chord ring knobs; [None] takes the backend default, resolved in one
      place — the Chord backend's [create]. *)

  type backend = Robust | Chord of chord_params
  (** Which overlay serves the requests: the paper's reconfigurable
      supernode DHT, or iterative Chord lookups (maintenance under
      [Reconfig], none under [Static]; [Group_kill] becomes the stale-view
      successor-list attack; see docs/chord.md). *)

  val chord_defaults : chord_params
  (** All [None]. *)
end

include module type of struct
  include Overlay
end

type config = {
  k : int;  (** cube arity of the underlying DHT *)
  mode : mode;
  period : int;
      (** reshuffle every [period] rounds (ignored by [Static]); also the
          health-note period *)
  backend : backend;
  attack : Attack.strategy;
  frac : float;  (** adversary budget as a fraction of [n] *)
  lateness : int;  (** adversary observation delay, in rounds *)
  staleness : Simnet.Snapshots.staleness option;
      (** per-round drawn observation delay, replacing [lateness] *)
  faults : Simnet.Faults.plan option;
      (** applied in full through {!Simnet.Runtime}: drop/duplicate/delay
          are rolled once per request leg and once per reply leg, and
          crashed servers count as blocked until they recover.  Reorder
          (vacuous on single-message legs) raises [Invalid_argument]. *)
  domains : int option;
      (** worker domains for schedule generation ([None] =
          {!Parallel.default_domains}); results are identical for every
          value *)
}
(** The environment every policy shares. *)

val config :
  who:string ->
  ?k:int ->
  ?mode:mode ->
  ?period:int ->
  ?backend:backend ->
  ?attack:Attack.strategy ->
  ?frac:float ->
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  ?faults:Simnet.Faults.plan ->
  ?domains:int ->
  unit ->
  config
(** Defaults: [k = 4], the [Robust] backend, [Reconfig] every
    [period = 8] rounds, [No_attack] with [frac = 0.1] and
    [lateness = period], no faults.  Raises [Invalid_argument], prefixed
    with [who], on a non-positive period or arity, a negative lateness, or
    a chord knob that is not positive. *)

val decode :
  ?static:bool -> Simnet.Scenario.t -> mode * backend * Attack.strategy
(** The plane keys of a scenario: [backend=reconfig] (the default) or
    [chord] (with the [chord-*] knobs) — plus [static], the robust DHT
    never reshuffled — and [adversary=] an {!Attack.parse_strategy} name
    (default [none]).  [static] forces [Static] on any backend.  Raises
    [Invalid_argument] on an unknown backend or attack.  The one decoder
    behind the [workload]/[social] flags, [run=social] sweeps and the
    e19/e20 cells. *)

val backend_module : config -> (module Backend_intf.S)
(** {!Backends.Robust} or {!Backends.Chord_ring}, per [backend]. *)

(** {2 Reports} *)

module Report : sig
  type class_report = {
    cls : string;  (** the class name, or ["all"] for the aggregate *)
    issued : int;
    ok : int;
    slo_miss : int;  (** served, but later than the class's SLO *)
    timed_out : int;
    failed : int;  (** retry budget exhausted *)
    max_hops : int;  (** worst routing hops over served attempts *)
    hist : Stats.Log_histogram.t;  (** served latencies, in rounds *)
  }

  val goodput : class_report -> float
  (** [ok / issued] (1.0 when nothing was issued). *)

  val percentile : class_report -> float -> int
  (** Latency percentile over served requests; 0 when nothing was
      served. *)

  val total_of : class_report list -> class_report
  (** The ["all"] row; its histogram is the exact cell-wise
      {!Stats.Log_histogram.merge} of the class histograms. *)

  type report = {
    n : int;
    classes : class_report list;  (** in the plan's class order *)
    total : class_report;  (** {!total_of} [classes] *)
    hop_msgs : int;
        (** request-plane messages ([Robust]: 1 + hops per DHT operation;
            [Chord]: contact legs) *)
    max_group_load : int;
        (** busiest supernode's messages in one round — Theorem 8's
            congestion (0 on Chord) *)
    total_bits : int;  (** all message bits, Chord maintenance included *)
  }

  val table_lines : report -> string list
  (** The fixed-width per-class table [overlay_sim workload] and [social]
      print, one string per line. *)

  val table_header : string
  val table_row : class_report -> string
end

include module type of struct
  include Report
end

(** {2 Policies} *)

type budget = { slo : int; timeout : int; retries : int }
(** One class's service budget, in rounds; [retries] counts re-attempts
    beyond the first. *)

type outcome =
  | Served of { service : int; hops : int }
      (** the whole attempt succeeded after [service] rounds *)
  | Failed of { hops : int }

type plan = {
  who : string;  (** prefix of the runtime's unsupported-fault errors *)
  spec : Spec.t;
      (** handed to the backend ([keys], [popularity]); [rounds] is the
          run length *)
  hot_keys : (int * float) array option;
      (** the adversary's hot-key ranking override ({!Backend_intf.ctx}) *)
  backend_retries : int;
      (** the backend's own retry budget (Chord maintenance) *)
  class_names : string array;  (** class names, in report order *)
  budgets : budget array;  (** per class *)
  churn : (float * int) option;
      (** [(frac, epoch)]: every [epoch] rounds a fresh [frac * n]
          servers are down for the epoch *)
  run_note : string;  (** name of the run-header note *)
  run_fields : (string * Simnet.Trace.value) list;
      (** the policy's header fields, between the backend's and
          [mode]/[attack] *)
  health_note : string option;  (** name of the periodic health note *)
}
(** What a policy fixes for the whole run. *)

module type POLICY = sig
  type t
  type req

  val plan : t -> plan

  val cls : req -> int
  (** Index into [plan.class_names]. *)

  val arrival : req -> int
  val client : req -> int

  val admit : t -> round:int -> (req -> unit) -> unit
  (** Issue this round's new requests, in order. *)

  val execute :
    t -> (module Backend_intf.S with type t = 'b) -> 'b -> entry:int -> req ->
    outcome
  (** One attempt's backend operations from [entry] (after both fault
      legs arrived). *)

  val finished : t -> req -> ready:int -> unit
  (** The request completed or was abandoned; its client could issue
      again from round [ready]. *)

  val on_churn : t -> Simnet.Runtime.t -> round:int -> down:int -> unit
  (** Called after each churn epoch's draw ([down] servers). *)
end

val admit_due :
  'r array -> int ref -> arrival:('r -> int) -> round:int -> ('r -> unit) ->
  unit
(** Open-schedule admission: issue every request of a by-arrival sorted
    schedule arriving at [round], advancing the cursor. *)

val run :
  (module Backend_intf.S) ->
  (module POLICY with type t = 'p) ->
  'p ->
  ?trace:Simnet.Trace.t ->
  seed:int64 ->
  n:int ->
  config ->
  report
(** Serve the policy's requests on a fresh [n]-server overlay.  Emits,
    when [trace] is given: the [plan.run_note] header, one [Round] per
    round (messages, bits, busiest-node load, blocked-set size), one
    [Request] per request at completion or abandonment (its [op] is the
    class name), [Adversary]/[Fault] events for churn draws and crash
    transitions, and whatever notes the policy and [plan.health_note]
    add. *)
