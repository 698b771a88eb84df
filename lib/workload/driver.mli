(** The §7 client workload against the robust DHT / pub-sub stack (or any
    other {!Backend_intf.S}): a {!Plane} policy.

    Requests come from an open-loop schedule ({!Gen.open_schedule}) or from
    closed-loop clients that keep one request outstanding and think
    between completions.  Every class (read, write, publish) shares the
    spec's SLO and timeout and the config's retry budget.  An attempt
    costs [1 + hops] service rounds per DHT operation (a publish is three
    chained operations: counter read, payload write, counter write, and is
    idempotent under retry because the counter is written last).  Churn is
    the coarse [churn] plan: every [epoch] rounds a fresh [frac * n]
    servers are down for the epoch.

    Determinism: per-client request streams ({!Gen.client_stream}) and the
    plane's [(seed, purpose)] streams, so a run is byte-identical for any
    [domains] value (the only parallel part, open-loop schedule
    generation, is keyed per client). *)

include module type of struct
  include Plane.Overlay
end

type churn = { frac : float; epoch : int }
(** Every [epoch] rounds, a fresh uniformly random [frac * n] servers are
    down for the whole epoch (coarse churn at the request-plane
    granularity). *)

type config = {
  spec : Spec.t;
  churn : churn option;
  retries : int;  (** re-attempts allowed beyond the first *)
  plane : Plane.config;
}

val config :
  ?k:int ->
  ?mode:mode ->
  ?period:int ->
  ?backend:backend ->
  ?attack:Attack.strategy ->
  ?frac:float ->
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  ?churn:churn ->
  ?faults:Simnet.Faults.plan ->
  ?retries:int ->
  ?domains:int ->
  Spec.t ->
  config
(** The plane defaults ({!Plane.config}), no churn and no retries.  Raises
    [Invalid_argument] on what {!Plane.config} rejects, negative retries,
    or a churn fraction outside [0, 1) / non-positive epoch. *)

include module type of struct
  include Plane.Report
end
(** Classes read, write, publish — in that order. *)

val run : ?trace:Simnet.Trace.t -> seed:int64 -> n:int -> config -> report
(** Execute the workload on a fresh [n]-server overlay chosen by
    [cfg.plane.backend]; the trace header is a [workload/run] note. *)

val run_backend :
  (module Backend_intf.S) ->
  ?trace:Simnet.Trace.t ->
  seed:int64 ->
  n:int ->
  config ->
  report
(** [run] on the given overlay; [cfg.plane.backend] is then only consulted
    for the Chord knobs ([ctx.chord]). *)
