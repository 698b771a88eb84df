(** The Reddit-style composite application ({!Apps.Social}) as a {!Plane}
    policy, on any overlay backend ({!Backend_intf.S}).

    The five social traffic classes are accounted separately: each has its
    own arrival mix share, its own retry/timeout budget and SLO
    ({!Apps.Social.budget}), and its own {!Stats.Log_histogram}.  A
    request is a chain of DHT operations (a post carries its repost
    fan-out); one attempt must serve the whole chain, and its service time
    is the sum of the chain's operation costs ([base_ops + hops + waits]
    each).

    The session cycle compiles onto the plane's coarse churn: with
    [session = (online, epoch)], every [epoch] rounds the offline users
    stop issuing (enforced at schedule generation) {e and} a fresh
    [1 - online] fraction of servers is down for the epoch.

    Tracing adds one span family, [social/*]: a [social/run] header note,
    a [social/session] note per churn epoch, and a [social/health] note
    (the backend's {!Backend_intf.S.health} probe) per reconfiguration
    period.  Requests are ordinary typed [Request] events whose [op]
    field carries the class name. *)

type config = { app : Apps.Social.config; plane : Plane.config }

val config :
  ?k:int ->
  ?mode:Plane.mode ->
  ?period:int ->
  ?backend:Plane.backend ->
  ?attack:Attack.strategy ->
  ?frac:float ->
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  ?faults:Simnet.Faults.plan ->
  ?domains:int ->
  Apps.Social.config ->
  config
(** The plane defaults; raises [Invalid_argument] as {!Plane.config}. *)

type report = Plane.report
(** Classes feed, post, comment, vote, dm — in that order. *)

val run : ?trace:Simnet.Trace.t -> seed:int64 -> n:int -> config -> report
(** Execute the social workload on a fresh [n]-server overlay.  The
    backend's adversary ranks the application's real hot keys — the
    subreddit publication counters ({!Apps.Social.hot_keys}) — so a
    [Group_kill] lands on the servers the feed reads actually hit. *)

val table_lines : report -> string list
(** {!Plane.table_lines}: the table [overlay_sim social] prints. *)
