type stats = {
  mutable stabilize_runs : int;
  mutable succ_adoptions : int;
  mutable succ_fallbacks : int;
  mutable isolated : int;
  mutable finger_probes : int;
  mutable finger_fixes : int;
  mutable pred_clears : int;
  mutable notifies : int;
  mutable joins : int;
  mutable join_failures : int;
  mutable msgs : int;
  mutable timeouts : int;
}

type t = {
  ring : Ring.t;
  rt : Simnet.Runtime.t;
  period : int;
  attempts : int;  (* probes allowed per contact: 1 + retry budget *)
  mutable round : int;
  stats : stats;
}

let create ring ~rt ?(period = 8) ?(retry = Core.Retry.fixed) () =
  if period <= 0 then invalid_arg "Chord.Net: period <= 0";
  {
    ring;
    rt;
    period;
    attempts = 1 + retry.Core.Retry.max_retries;
    round = 0;
    stats =
      {
        stabilize_runs = 0;
        succ_adoptions = 0;
        succ_fallbacks = 0;
        isolated = 0;
        finger_probes = 0;
        finger_fixes = 0;
        pred_clears = 0;
        notifies = 0;
        joins = 0;
        join_failures = 0;
        msgs = 0;
        timeouts = 0;
      };
  }

let ring t = t.ring
let stats t = t.stats

(* request/reply probe of [v], re-tried within the slice's budget *)
let contact t ~avail v =
  let rec go k =
    if k >= t.attempts then false
    else begin
      t.stats.msgs <- t.stats.msgs + 1;
      let req = Simnet.Runtime.leg t.rt ~dst:v () in
      let ok =
        if not (req && avail v) then false
        else begin
          t.stats.msgs <- t.stats.msgs + 1;
          Simnet.Runtime.leg t.rt ~src:v ()
        end
      in
      if ok then true
      else begin
        t.stats.timeouts <- t.stats.timeouts + 1;
        go (k + 1)
      end
    end
  in
  go 0

(* v.succs := new_succ followed by new_succ's list (skipping v and holes) *)
let install_succs t v new_succ =
  let nd = Ring.node t.ring v in
  let src = (Ring.node t.ring new_succ).Ring.succs in
  nd.Ring.succs.(0) <- new_succ;
  let j = ref 1 in
  Array.iter
    (fun e ->
      if !j < Array.length nd.Ring.succs && e >= 0 && e <> v && e <> new_succ then begin
        nd.Ring.succs.(!j) <- e;
        incr j
      end)
    src;
  while !j < Array.length nd.Ring.succs do
    nd.Ring.succs.(!j) <- -1;
    incr j
  done

let notify t ~avail v target =
  t.stats.notifies <- t.stats.notifies + 1;
  t.stats.msgs <- t.stats.msgs + 1;
  if Simnet.Runtime.leg t.rt ~src:v ~dst:target () && avail target then begin
    let tn = Ring.node t.ring target in
    let vid = Ring.id t.ring v in
    if
      tn.Ring.pred < 0
      || Id.in_oo (Ring.id t.ring tn.Ring.pred) tn.Ring.id vid
    then tn.Ring.pred <- v
  end

let stabilize t ~avail v =
  let nd = Ring.node t.ring v in
  t.stats.stabilize_runs <- t.stats.stabilize_runs + 1;
  let first_responsive arr =
    let found = ref (-1) in
    Array.iter
      (fun e -> if !found < 0 && e >= 0 && e <> v && contact t ~avail e then found := e)
      arr;
    !found
  in
  let s = first_responsive nd.Ring.succs in
  if s < 0 then begin
    (* whole successor list dead: degrade to the finger table *)
    let f = first_responsive nd.Ring.fingers in
    if f < 0 then t.stats.isolated <- t.stats.isolated + 1
    else begin
      t.stats.succ_fallbacks <- t.stats.succ_fallbacks + 1;
      if nd.Ring.succs.(0) <> f then t.stats.succ_adoptions <- t.stats.succ_adoptions + 1;
      install_succs t v f;
      notify t ~avail v f
    end
  end
  else begin
    (* classic stabilize: adopt s.pred if it sits between us and s and
       answers a probe (the reply carries its successor list) *)
    let sp = (Ring.node t.ring s).Ring.pred in
    let adopt =
      sp >= 0 && sp <> v
      && Id.in_oo nd.Ring.id (Ring.id t.ring s) (Ring.id t.ring sp)
      && contact t ~avail sp
    in
    let new_succ = if adopt then sp else s in
    if nd.Ring.succs.(0) <> new_succ then
      t.stats.succ_adoptions <- t.stats.succ_adoptions + 1;
    install_succs t v new_succ;
    notify t ~avail v new_succ
  end

let fix_finger t ~avail v =
  if Ring.nf t.ring > 0 then begin
    let nd = Ring.node t.ring v in
    let i = nd.Ring.next_finger in
    nd.Ring.next_finger <- (i + 1) mod Ring.nf t.ring;
    t.stats.finger_probes <- t.stats.finger_probes + 1;
    let target = Id.finger_start ~m:(Ring.m t.ring) nd.Ring.id i in
    let o = Lookup.find t.ring ~rt:t.rt ~avail ~from:v ~id:target () in
    t.stats.msgs <- t.stats.msgs + o.Lookup.msgs;
    t.stats.timeouts <- t.stats.timeouts + o.Lookup.timeouts;
    if o.Lookup.ok then begin
      if nd.Ring.fingers.(i) <> o.Lookup.owner then
        t.stats.finger_fixes <- t.stats.finger_fixes + 1;
      nd.Ring.fingers.(i) <- o.Lookup.owner
    end
  end

let check_predecessor t ~avail v =
  let nd = Ring.node t.ring v in
  if nd.Ring.pred >= 0 && not (contact t ~avail nd.Ring.pred) then begin
    nd.Ring.pred <- -1;
    t.stats.pred_clears <- t.stats.pred_clears + 1
  end

let tick t ~avail =
  let n = Ring.n t.ring in
  let before_msgs = t.stats.msgs and before_to = t.stats.timeouts in
  let active = ref 0 in
  for v = 0 to n - 1 do
    if Ring.is_alive t.ring v && avail v && (t.round + v) mod t.period = 0 then begin
      incr active;
      stabilize t ~avail v;
      fix_finger t ~avail v;
      check_predecessor t ~avail v
    end
  done;
  if !active > 0 then
    Simnet.Runtime.span t.rt ~name:"chord/maintain" ~rounds:1
      [
        ("round", Simnet.Trace.Int t.round);
        ("active", Simnet.Trace.Int !active);
        ("msgs", Simnet.Trace.Int (t.stats.msgs - before_msgs));
        ("timeouts", Simnet.Trace.Int (t.stats.timeouts - before_to));
      ];
  t.round <- t.round + 1

let join t ~avail ~via idx =
  let nd = Ring.node t.ring idx in
  let m = Ring.m t.ring in
  let target = (nd.Ring.id + 1) land Id.mask m in
  let o = Lookup.find t.ring ~rt:t.rt ~avail ~from:via ~id:target () in
  t.stats.msgs <- t.stats.msgs + o.Lookup.msgs;
  t.stats.timeouts <- t.stats.timeouts + o.Lookup.timeouts;
  if o.Lookup.ok && o.Lookup.owner <> idx then begin
    t.stats.joins <- t.stats.joins + 1;
    install_succs t idx o.Lookup.owner;
    nd.Ring.pred <- -1;
    Array.fill nd.Ring.fingers 0 (Ring.nf t.ring) (-1);
    nd.Ring.fingers.(0) <- o.Lookup.owner;
    nd.Ring.next_finger <- 1 mod Ring.nf t.ring;
    Simnet.Runtime.note t.rt ~name:"chord/join"
      [
        ("node", Simnet.Trace.Int idx);
        ("succ", Simnet.Trace.Int o.Lookup.owner);
        ("via", Simnet.Trace.Int via);
      ];
    true
  end
  else begin
    t.stats.join_failures <- t.stats.join_failures + 1;
    false
  end

let churn t ~rng ~was_down ~down =
  let n = Array.length down in
  for v = 0 to n - 1 do
    Ring.set_alive t.ring v (not down.(v))
  done;
  let join_avail v =
    Ring.is_alive t.ring v && not (Simnet.Runtime.crashed t.rt v)
  in
  for v = 0 to n - 1 do
    if was_down.(v) && not down.(v) then
      match Ring.pick rng ~ok:(fun u -> u <> v && join_avail u) n with
      | Some via -> ignore (join t ~avail:join_avail ~via v)
      | None -> ()
  done
