module Metrics = Simnet.Metrics
module Msg_size = Simnet.Msg_size
module Trace = Simnet.Trace

let finish_round trace metrics =
  let s = Metrics.finish_round metrics in
  if Trace.enabled trace then Trace.emit trace (Trace.round_of_summary s)

let result ~samples ~rounds ~walk_length ~schedule ~underflows metrics =
  {
    Sampling_result.samples;
    rounds;
    walk_length;
    schedule;
    underflows;
    retries = 0;
    escalations = 0;
    max_round_node_bits = Metrics.max_node_bits_ever metrics;
    total_bits = Metrics.total_bits metrics;
  }

(* Bucket b = u * d + j is node u's multiset for the coordinate segment
   starting at j.  At iteration i the segments are [s, min (s + 2^i, d)) for
   s a multiple of 2^i; a segment whose right sibling start s + 2^(i-1) falls
   outside [0, d) has nothing to merge with and its bucket persists.  All
   buckets share one arena: bucket b holds len.(b) ids at b * m_0. *)

let run ~trace ~eps ~c ~rng ~n ~d ~redraw =
  let iters = Params.iterations_hypercube ~d in
  let schedule = Params.schedule_hypercube ~eps ~c ~n ~iters in
  (* A non-increasing schedule bounds every bucket by m_0 and every round's
     requests by those of the first. *)
  for i = 1 to iters do
    if schedule.(i) > schedule.(i - 1) then
      invalid_arg "Rapid_cube.run: schedule grows"
  done;
  let m0 = schedule.(0) in
  (* A request carries (requester id, segment index); a response carries
     (sampled id, segment index). *)
  let msg_bits =
    Msg_size.ids_msg ~id_bits:(Msg_size.id_bits n) ~count:1
    + Msg_size.id_bits (max 2 d)
  in
  let metrics = Metrics.create ~n in
  let underflows = ref 0 in
  let buckets = n * d in
  let arena = Array.make (buckets * m0) 0 and len = Array.make buckets 0 in
  (* Swap-remove a uniformly random id of bucket b; -1 if it is empty. *)
  let extract b =
    let l = len.(b) in
    if l = 0 then -1
    else begin
      let base = b * m0 in
      let i = Prng.Stream.int rng l in
      let v = arena.(base + i) in
      arena.(base + i) <- arena.(base + l - 1);
      len.(b) <- l - 1;
      v
    end
  in
  (* Phase 1: bucket j of u holds m_0 independent redraws of coordinate j. *)
  for b = 0 to buckets - 1 do
    let u = b / d and j = b mod d in
    for x = 0 to m0 - 1 do
      arena.((b * m0) + x) <- redraw u j
    done;
    len.(b) <- m0
  done;
  (* A round's requests, as server * buckets + requester bucket, in sending
     order; their requester buckets counting-sorted by server (stably) into
     [by_server].  A round charges each node's messages in one metrics call:
     every message carries [msg_bits]. *)
  let max_requests = if iters = 0 then 0 else n * ((d + 1) / 2) * schedule.(1) in
  let requests = Array.make max_requests 0 in
  let by_server = Array.make max_requests 0 in
  let starts = Array.make (n + 1) 0 in
  for i = 1 to iters do
    let mi = schedule.(i) and step = 1 lsl i and half = 1 lsl (i - 1) in
    let sent = ref 0 in
    Array.fill starts 0 (n + 1) 0;
    (* Phase 2 (one round): every left segment with a right sibling sends
       m_i requests to ids drawn from its bucket.  The bucket is then empty
       for the responses: the serve round reads right siblings only. *)
    for u = 0 to n - 1 do
      let first = !sent and s = ref 0 in
      while !s + half < d do
        let b = (u * d) + !s in
        for _ = 1 to mi do
          let v = extract b in
          if v < 0 then incr underflows
          else begin
            requests.(!sent) <- (v * buckets) + b;
            incr sent;
            starts.(v + 1) <- starts.(v + 1) + 1
          end
        done;
        len.(b) <- 0;
        s := !s + step
      done;
      Metrics.on_sends metrics ~node:u ~count:(!sent - first) ~bits:msg_bits
    done;
    for v = 0 to n - 1 do
      Metrics.on_recvs metrics ~node:v ~count:starts.(v + 1) ~bits:msg_bits
    done;
    finish_round trace metrics;
    for v = 1 to n do
      starts.(v) <- starts.(v) + starts.(v - 1)
    done;
    for x = 0 to !sent - 1 do
      let v = requests.(x) / buckets in
      by_server.(starts.(v)) <- requests.(x) mod buckets;
      starts.(v) <- starts.(v) + 1
    done;
    (* Phase 3 + 4 (one round): each server, in id order, answers its
       requests (now ending at starts.(v)) in arrival order from its
       right-sibling bucket. *)
    let x = ref 0 in
    for v = 0 to n - 1 do
      let served = ref 0 in
      while !x < starts.(v) do
        let b = by_server.(!x) in
        let w = extract ((v * d) + (b mod d) + half) in
        if w < 0 then incr underflows
        else begin
          incr served;
          arena.((b * m0) + len.(b)) <- w;
          len.(b) <- len.(b) + 1
        end;
        incr x
      done;
      Metrics.on_sends metrics ~node:v ~count:!served ~bits:msg_bits
    done;
    for u = 0 to n - 1 do
      let received = ref 0 and s = ref 0 in
      while !s + half < d do
        received := !received + len.((u * d) + !s);
        s := !s + step
      done;
      Metrics.on_recvs metrics ~node:u ~count:!received ~bits:msg_bits
    done;
    (* What is left in the right siblings is dead: no later iteration
       reads a bucket at an odd multiple of 2^(i-1). *)
    finish_round trace metrics
  done;
  (* The coordinate-0 bucket is a multiset: expose it in uniformly random
     order (a free local permutation).  Responses arrive grouped by server,
     and same-server responses share the server's already-fixed
     coordinates; a consumer taking a prefix of the arrival order would see
     correlated samples. *)
  let samples =
    Array.init n (fun u ->
        let a = Array.sub arena (u * d * m0) len.(u * d) in
        Prng.Stream.shuffle_in_place rng a;
        a)
  in
  result ~samples ~rounds:(2 * iters) ~walk_length:d ~schedule
    ~underflows:!underflows metrics

let run_plain ~trace ~k ~n ~d ~redraw =
  let token_bits = Msg_size.ids_msg ~id_bits:(Msg_size.id_bits n) ~count:1 in
  let metrics = Metrics.create ~n in
  (* Token j starts at its origin j / k. *)
  let positions = Array.init (n * k) (fun j -> j / k) in
  for dim = 0 to d - 1 do
    for j = 0 to (n * k) - 1 do
      let cur = positions.(j) in
      let next = redraw cur dim in
      if next <> cur then begin
        Metrics.on_send metrics ~node:cur ~bits:token_bits;
        Metrics.on_recv metrics ~node:next ~bits:token_bits;
        positions.(j) <- next
      end
    done;
    finish_round trace metrics
  done;
  for j = 0 to (n * k) - 1 do
    Metrics.on_send metrics ~node:positions.(j) ~bits:token_bits;
    Metrics.on_recv metrics ~node:(j / k) ~bits:token_bits
  done;
  finish_round trace metrics;
  (* An origin lists its tokens' endpoints last token first. *)
  let samples =
    Array.init n (fun o -> Array.init k (fun i -> positions.((o * k) + k - 1 - i)))
  in
  result ~samples ~rounds:(d + 1) ~walk_length:d ~schedule:[| k |] ~underflows:0
    metrics
