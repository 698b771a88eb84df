module Overlay = struct
  type mode = Backend_intf.mode = Reconfig | Static

  type chord_params = Backend_intf.chord_knobs = {
    fingers : int option;
    succs : int option;
    period : int option;
  }

  type backend = Robust | Chord of chord_params

  let chord_defaults = { fingers = None; succs = None; period = None }
end

include Overlay

type config = {
  k : int;
  mode : mode;
  period : int;
  backend : backend;
  attack : Attack.strategy;
  frac : float;
  lateness : int;
  staleness : Simnet.Snapshots.staleness option;
  faults : Simnet.Faults.plan option;
  domains : int option;
}

let config ~who ?(k = 4) ?(mode = Reconfig) ?(period = 8) ?(backend = Robust)
    ?(attack = Attack.No_attack) ?(frac = 0.1) ?lateness ?staleness ?faults
    ?domains () =
  let lateness = Option.value lateness ~default:period in
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  if k < 2 then fail "arity k < 2";
  if period <= 0 then fail "period <= 0";
  if lateness < 0 then fail "negative lateness";
  (match backend with
  | Robust -> ()
  | Chord { fingers; succs; period } ->
      List.iter
        (function
          | name, Some v when v <= 0 -> fail ("chord " ^ name ^ " must be > 0")
          | _ -> ())
        [ ("fingers", fingers); ("succs", succs); ("period", period) ]);
  { k; mode; period; backend; attack; frac; lateness; staleness; faults;
    domains }

let decode ?(static = false) (sc : Simnet.Scenario.t) =
  let attack =
    match sc.adversary with
    | None -> Attack.No_attack
    | Some s -> (
        match Attack.parse_strategy s with Ok a -> a | Error e -> invalid_arg e)
  in
  let mode, backend =
    match sc.backend with
    | None | Some "reconfig" -> (Reconfig, Robust)
    | Some "static" -> (Static, Robust)
    | Some "chord" ->
        ( Reconfig,
          Chord
            {
              fingers = sc.chord_fingers;
              succs = sc.chord_succs;
              period = sc.chord_period;
            } )
    | Some other ->
        invalid_arg
          (Printf.sprintf "unknown backend %S (reconfig|chord)" other)
  in
  ((if static then Static else mode), backend, attack)

let backend_module cfg : (module Backend_intf.S) =
  match cfg.backend with
  | Robust -> (module Backends.Robust)
  | Chord _ -> (module Backends.Chord_ring)

(* ---------- reports ---------- *)

module Report = struct
  type class_report = {
    cls : string;
    issued : int;
    ok : int;
    slo_miss : int;
    timed_out : int;
    failed : int;
    max_hops : int;
    hist : Stats.Log_histogram.t;
  }

  let goodput r =
    if r.issued = 0 then 1.0 else float_of_int r.ok /. float_of_int r.issued

  let percentile r p =
    if Stats.Log_histogram.total r.hist = 0 then 0
    else Stats.Log_histogram.percentile r.hist p

  type report = {
    n : int;
    classes : class_report list;
    total : class_report;
    hop_msgs : int;
    max_group_load : int;
    total_bits : int;
  }

  let total_of classes =
    let sum f = List.fold_left (fun a c -> a + f c) 0 classes in
    {
      cls = "all";
      issued = sum (fun c -> c.issued);
      ok = sum (fun c -> c.ok);
      slo_miss = sum (fun c -> c.slo_miss);
      timed_out = sum (fun c -> c.timed_out);
      failed = sum (fun c -> c.failed);
      max_hops = List.fold_left (fun a c -> max a c.max_hops) 0 classes;
      hist =
        (match classes with
        | [] -> Stats.Log_histogram.create ()
        | c :: rest ->
            List.fold_left
              (fun h c' -> Stats.Log_histogram.merge c'.hist h)
              c.hist (List.rev rest));
    }

  let row_format : _ format = "%-8s %6s %6s %8s %5s %5s %5s %9s %8s %7s %9s"

  let table_row c =
    Printf.sprintf row_format c.cls
      (string_of_int c.issued)
      (string_of_int c.ok)
      (Printf.sprintf "%.3f" (goodput c))
      (string_of_int (percentile c 0.50))
      (string_of_int (percentile c 0.90))
      (string_of_int (percentile c 0.99))
      (string_of_int c.slo_miss)
      (string_of_int c.timed_out)
      (string_of_int c.failed)
      (string_of_int c.max_hops)

  let table_header =
    Printf.sprintf row_format "class" "issued" "ok" "goodput" "p50" "p90" "p99"
      "slo-miss" "timeout" "failed" "max-hops"

  let table_lines report =
    table_header
    :: (List.map table_row report.classes @ [ table_row report.total ])
end

include Report

(* mutable per-class accumulator; frozen into a class_report at the end *)
type acc = {
  a_cls : string;
  mutable a_issued : int;
  mutable a_ok : int;
  mutable a_slo_miss : int;
  mutable a_timed_out : int;
  mutable a_failed : int;
  mutable a_max_hops : int;
  a_hist : Stats.Log_histogram.t;
}

let acc_create cls =
  { a_cls = cls; a_issued = 0; a_ok = 0; a_slo_miss = 0; a_timed_out = 0;
    a_failed = 0; a_max_hops = 0; a_hist = Stats.Log_histogram.create () }

let freeze a =
  { cls = a.a_cls; issued = a.a_issued; ok = a.a_ok; slo_miss = a.a_slo_miss;
    timed_out = a.a_timed_out; failed = a.a_failed; max_hops = a.a_max_hops;
    hist = a.a_hist }

(* ---------- policies ---------- *)

type budget = { slo : int; timeout : int; retries : int }

type outcome =
  | Served of { service : int; hops : int }
  | Failed of { hops : int }

type plan = {
  who : string;
  spec : Spec.t;
  hot_keys : (int * float) array option;
  backend_retries : int;
  class_names : string array;
  budgets : budget array;
  churn : (float * int) option;
  run_note : string;
  run_fields : (string * Simnet.Trace.value) list;
  health_note : string option;
}

module type POLICY = sig
  type t
  type req

  val plan : t -> plan
  val cls : req -> int
  val arrival : req -> int
  val client : req -> int
  val admit : t -> round:int -> (req -> unit) -> unit

  val execute :
    t -> (module Backend_intf.S with type t = 'b) -> 'b -> entry:int -> req ->
    outcome

  val finished : t -> req -> ready:int -> unit
  val on_churn : t -> Simnet.Runtime.t -> round:int -> down:int -> unit
end

let admit_due schedule pos ~arrival ~round issue =
  while !pos < Array.length schedule && arrival schedule.(!pos) = round do
    issue schedule.(!pos);
    incr pos
  done

type 'req pending = { req : 'req; mutable attempts : int }

(* ---------- the round loop ---------- *)

let run (type p) (module B : Backend_intf.S) (module P : POLICY with type t = p)
    (policy : p) ?(trace = Simnet.Trace.null) ~seed ~n (cfg : config) =
  let plan = P.plan policy in
  let spec = plan.spec in
  (* fixed split order: every stream is a function of (seed, purpose) *)
  let root = Prng.Stream.of_seed seed in
  let backend_rng = Prng.Stream.split root in
  let service_rng = Prng.Stream.split root in
  let churn_rng = Prng.Stream.split root in
  let attack_rng = Prng.Stream.split root in
  (* All fault application, loss accounting and round/trace emission go
     through the runtime.  Reorder is vacuous on the single-message
     request/reply legs and rejected rather than silently ignored. *)
  let rt =
    Simnet.Runtime.create ~trace ?faults:cfg.faults
      ~supports:[ `Drop; `Duplicate; `Delay; `Crash; `Recover ]
      ~who:plan.who ~n ()
  in
  let blocked = Array.make n false in
  let b =
    B.create
      {
        Backend_intf.n;
        k = cfg.k;
        mode = cfg.mode;
        period = cfg.period;
        attack = cfg.attack;
        frac = cfg.frac;
        lateness = cfg.lateness;
        staleness = cfg.staleness;
        retries = plan.backend_retries;
        spec;
        hot_keys = plan.hot_keys;
        chord =
          (match cfg.backend with Chord cp -> cp | Robust -> chord_defaults);
        rng = backend_rng;
        attack_rng;
        rt;
        blocked;
      }
  in
  let backend = (module B : Backend_intf.S with type t = B.t) in
  let churn_down = Array.make n false in
  let accs = Array.map acc_create plan.class_names in
  let hop_msgs = ref 0 and total_bits = ref 0 in
  let queue : P.req pending Queue.t = Queue.create () in
  Simnet.Runtime.note rt ~name:plan.run_note
    ((("n", Simnet.Trace.Int n) :: B.note_fields b)
    @ plan.run_fields
    @ [
        ( "mode",
          Simnet.Trace.String
            (match cfg.mode with Reconfig -> "reconfig" | Static -> "static")
        );
        ("attack", Simnet.Trace.String (Attack.strategy_to_string cfg.attack));
      ]);
  let request_event req ~round ~latency ~hops ~status =
    Simnet.Runtime.request rt
      ~op:plan.class_names.(P.cls req)
      ~round ~client:(P.client req) ~latency ~hops ~status
  in
  let gave_up p ~round ~status ~hops =
    let a = accs.(P.cls p.req) in
    (match status with
    | `Timeout -> a.a_timed_out <- a.a_timed_out + 1
    | `Failed -> a.a_failed <- a.a_failed + 1);
    request_event p.req ~round ~latency:(round - P.arrival p.req) ~hops
      ~status:(match status with `Timeout -> "timeout" | `Failed -> "failed");
    P.finished policy p.req ~ready:(round + 1)
  in
  let served p ~round ~service ~hops =
    let c = P.cls p.req in
    let a = accs.(c) in
    let latency = round - P.arrival p.req + service in
    a.a_ok <- a.a_ok + 1;
    if latency > plan.budgets.(c).slo then a.a_slo_miss <- a.a_slo_miss + 1;
    if hops > a.a_max_hops then a.a_max_hops <- hops;
    Stats.Log_histogram.add a.a_hist latency;
    request_event p.req ~round ~latency ~hops ~status:"ok";
    P.finished policy p.req ~ready:(round + service)
  in
  let attempt req =
    (* Request leg, then reply leg.  Both legs are always rolled, so the
       fault stream is consumed the same way whatever the first leg's
       outcome. *)
    let lost_req = not (Simnet.Runtime.leg rt ()) in
    let lost_rep = not (Simnet.Runtime.leg rt ()) in
    if lost_req || lost_rep then Failed { hops = 0 }
    else
      match B.entry b ~rng:service_rng with
      | None -> Failed { hops = 0 }
      | Some entry -> P.execute policy backend b ~entry req
  in
  let issue req =
    let a = accs.(P.cls req) in
    a.a_issued <- a.a_issued + 1;
    Queue.add { req; attempts = 0 } queue
  in
  for r = 0 to spec.Spec.rounds - 1 do
    (* 1. reconfiguration (the robust reshuffle; Chord has none — its
       analogue is the per-round maintenance slice below) *)
    B.reconfigure b ~round:r;
    (* 2. the adversary's delayed observation of the new structure *)
    B.observe b;
    (* 3. churn epoch boundary: membership redraw; backend-specific
       follow-up (Chord re-joins returners through a live introducer) *)
    (match plan.churn with
    | Some (frac, epoch) when r mod epoch = 0 ->
        let was_down = Array.copy churn_down in
        Array.fill churn_down 0 n false;
        let down = int_of_float (frac *. float_of_int n) in
        if down > 0 then begin
          let picks = Prng.Stream.sample_distinct churn_rng n ~k:down in
          Array.iter (fun v -> churn_down.(v) <- true) picks
        end;
        B.churn b ~rng:churn_rng ~was_down ~down:churn_down;
        Simnet.Runtime.adversary rt ~kind:"churn"
          [ ("round", Simnet.Trace.Int r); ("down", Simnet.Trace.Int down) ];
        P.on_churn policy rt ~round:r ~down
    | _ -> ());
    (* 4. scheduled crash / recover transitions *)
    ignore (Simnet.Runtime.tick rt);
    (* 5. this round's blocked set: churn + crashes + adversary budget *)
    for v = 0 to n - 1 do
      blocked.(v) <- churn_down.(v) || Simnet.Runtime.crashed rt v
    done;
    B.mark_attack b ~into:blocked;
    let blocked_count =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked
    in
    (* 6. per-round counters, one maintenance slice, the health probe *)
    B.begin_round b;
    B.maintain b;
    (match plan.health_note with
    | Some name when r > 0 && r mod cfg.period = 0 ->
        Simnet.Runtime.note rt ~name
          (("round", Simnet.Trace.Int r) :: B.health b)
    | _ -> ());
    (* 7. admissions *)
    P.admit policy ~round:r issue;
    (* 8. one service attempt per pending request; retries requeue behind
       this round's snapshot and wait for the next round *)
    let in_flight = Queue.length queue in
    for _ = 1 to in_flight do
      let p = Queue.pop queue in
      p.attempts <- p.attempts + 1;
      match attempt p.req with
      | Served { service; hops } -> served p ~round:r ~service ~hops
      | Failed { hops } ->
          let budget = plan.budgets.(P.cls p.req) in
          if p.attempts > budget.retries then
            gave_up p ~round:r ~status:`Failed ~hops
          else if r + 1 > P.arrival p.req + budget.timeout then
            gave_up p ~round:r ~status:`Timeout ~hops
          else Queue.add p queue
    done;
    (* 9. round boundary *)
    let e = B.emit_round b in
    hop_msgs := !hop_msgs + e.Backend_intf.req_msgs;
    total_bits := !total_bits + e.Backend_intf.bits;
    Simnet.Runtime.emit_round rt ~msgs:e.Backend_intf.msgs
      ~bits:e.Backend_intf.bits ~max_node_bits:e.Backend_intf.max_node_bits
      ~max_node_msgs:e.Backend_intf.max_node_msgs ~blocked:blocked_count;
    Simnet.Runtime.advance rt ~rounds:1
  done;
  (* drain: whatever is still pending never completed in time *)
  Queue.iter
    (fun p -> gave_up p ~round:spec.Spec.rounds ~status:`Timeout ~hops:0)
    queue;
  Queue.clear queue;
  let classes = Array.to_list (Array.map freeze accs) in
  {
    n;
    classes;
    total = total_of classes;
    hop_msgs = !hop_msgs;
    max_group_load = B.max_group_load b;
    total_bits = !total_bits;
  }
