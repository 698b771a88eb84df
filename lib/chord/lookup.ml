(* the running counters of one lookup *)
type tally = { mutable hops : int; mutable timeouts : int; mutable msgs : int }

type outcome = { ok : bool; owner : int; hops : int; timeouts : int; msgs : int }

(* one request leg out, and if the target is reachable, one reply leg
   back; the request is charged even when it dies on the wire *)
let contact rt ~avail (t : tally) v =
  t.msgs <- t.msgs + 1;
  if Simnet.Runtime.leg rt ~dst:v () && avail v then begin
    t.msgs <- t.msgs + 1;
    if Simnet.Runtime.leg rt ~src:v () then begin
      t.hops <- t.hops + 1;
      true
    end
    else begin
      t.timeouts <- t.timeouts + 1;
      false
    end
  end
  else begin
    t.timeouts <- t.timeouts + 1;
    false
  end

(* Insert pointer [v] into [cands.(0 .. len - 1)], kept in decreasing
   clockwise distance from [cid], if it lies strictly inside the arc
   (cid, cid + dtarget); return the new length.  Node ids are distinct,
   so an equal distance means [v] is already there. *)
let insert nodes ~mask ~cid ~dtarget cands len v =
  if v < 0 then len
  else begin
    let d = (nodes.(v).Ring.id - cid) land mask in
    if d = 0 || d >= dtarget then len
    else begin
      let j = ref len in
      while !j > 0 && (nodes.(cands.(!j - 1)).Ring.id - cid) land mask < d do
        decr j
      done;
      if !j > 0 && cands.(!j - 1) = v then len
      else begin
        Array.blit cands !j cands (!j + 1) (len - !j);
        cands.(!j) <- v;
        len + 1
      end
    end
  end

let find ring ~rt ~avail ?(accept = fun _ -> true) ?max_hops ~from ~id () =
  let max_hops = match max_hops with Some h -> h | None -> 4 * Ring.m ring in
  (* read the node table and mask once: a hop reads every pointer's id,
     and accessor calls across modules are not inlined in opaque
     (dune dev-profile) builds *)
  let nodes = Ring.nodes ring and mask = Ring.mask ring in
  let t : tally = { hops = 0; timeouts = 0; msgs = 0 } in
  let cands = Array.make (Ring.nf ring + Ring.r ring) (-1) in
  let owner = ref (-1) and cur = ref from and routing = ref true in
  while !routing do
    let nd = nodes.(!cur) in
    let cid = nd.Ring.id and succs = nd.Ring.succs in
    let s0 = ref (-1) and i = ref 0 in
    while !s0 < 0 && !i < Array.length succs do
      s0 := succs.(!i);
      incr i
    done;
    routing := false;
    if cid = id || (!s0 >= 0 && Id.in_oc cid nodes.(!s0).Ring.id id) then begin
      (* [cur] owns the key itself (its id is the target: the interval
         below is open there), or believes the key falls to its successor
         list.  An owner serves under [accept] without a contact; then
         the successor entries are exactly the believed replica chain,
         walked in order; if none is contactable and accepted, the lookup
         fails here *)
      if cid = id && accept !cur then owner := !cur
      else begin
        let k = ref 0 in
        while !owner < 0 && !k < Array.length succs do
          let c = succs.(!k) in
          if
            c >= 0
            && t.hops + t.timeouts < max_hops
            && contact rt ~avail t c && accept c
          then owner := c;
          incr k
        done
      end
    end
    else begin
      (* greedy routing: every known pointer strictly inside (cur, id),
         farthest (closest preceding the target) first; successor
         entries ride along as the walking fallback *)
      let dtarget = (id - cid) land mask in
      let len = ref 0 in
      (* the sorted result does not depend on the insertion order; the
         tables run nearest to farthest, so walking them backwards
         appends most entries without a shift *)
      for i = Array.length nd.Ring.fingers - 1 downto 0 do
        len := insert nodes ~mask ~cid ~dtarget cands !len nd.Ring.fingers.(i)
      done;
      for i = Array.length succs - 1 downto 0 do
        len := insert nodes ~mask ~cid ~dtarget cands !len succs.(i)
      done;
      let k = ref 0 in
      while (not !routing) && !k < !len && t.hops + t.timeouts < max_hops do
        let c = cands.(!k) in
        if contact rt ~avail t c then begin
          cur := c;
          routing := true
        end;
        incr k
      done
    end;
    if t.hops + t.timeouts >= max_hops then routing := false
  done;
  {
    ok = !owner >= 0;
    owner = !owner;
    hops = t.hops;
    timeouts = t.timeouts;
    msgs = t.msgs;
  }
