(** Iterative Chord lookup over believed routing state.

    The querier walks the ring itself: at each step it asks the current
    node for the next hop, so every contact is a request/reply pair rolled
    through the runtime's fault plan ({!Simnet.Runtime.leg}).  Routing is
    greedy through the finger table — candidates are every known finger or
    successor-list entry strictly inside the arc (current, target), tried
    farthest-first — which degrades gracefully to successor-walking when
    fingers are unknown or dead: the successor entries are always in the
    candidate list, just tried last.  Once the current node believes the
    target falls to its successor list, the entries are tried in order
    (replica walking) until one is contactable and [accept]ed.  A node
    whose own id is the target owns it: it serves the request itself if
    [accept]ed, and otherwise walks its successor list the same way. *)

type outcome = {
  ok : bool;
  owner : int;  (** the accepted node; [-1] on failure *)
  hops : int;  (** successful contacts (request and reply both arrived) *)
  timeouts : int;  (** contact attempts that got no reply *)
  msgs : int;  (** messages charged: every request, plus delivered replies *)
}

val find :
  Ring.t ->
  rt:Simnet.Runtime.t ->
  avail:(int -> bool) ->
  ?accept:(int -> bool) ->
  ?max_hops:int ->
  from:int ->
  id:int ->
  unit ->
  outcome
(** Resolve identifier [id] starting at node [from] (assumed available; it
    is the querier's entry point and is not contacted).  [avail] is the
    round's reachability (membership minus crashes, churn and DoS
    blocking); [accept] (default: everything) decides whether a contacted
    owner-candidate actually serves the request — pass a replica check to
    model data placement.  The contact budget [max_hops] (default [4 * m])
    caps successful and failed contacts together. *)
