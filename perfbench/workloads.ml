(* The four workloads and how each is run and timed from outside.

   Every run is a pure function of its seed: the benchmark hands the
   library a seed and a configuration and reads back a report.  The
   untraced run reads the clock only at run start, at round 0 and at run
   end.  The traced run wraps the same public entry points (a timed
   {!Workload.Backend_intf.S}, a timestamping trace sink, or timed
   [Group_sim.run_round] calls) and must leave the report byte-identical,
   which [digest] lets the caller check. *)

type scale = Full | Small

type outcome = {
  wall : float;  (** run start to run end, seconds *)
  setup : float;  (** run start to round 0, seconds *)
  ops : int;  (** operations: requests, or supernode groups on groupsim *)
  failed : int;  (** requests not ok, or supernode groups lost *)
  hop_msgs : int;
  digest : string;  (** MD5 of the printed report *)
  summary : string;  (** one human-readable line of the report *)
  errors : string list;  (** output-check violations *)
  layers : (string * float) list;  (** per-layer metrics; [] untraced *)
  rounds : float list;  (** round durations in seconds; [] untraced *)
}

type t = {
  name : string;
  run : scale -> seed:int64 -> traced:bool -> outcome;
  setup_only : scale -> seed:int64 -> float;
      (** build the overlay and the schedule, stop at round 0 *)
}

exception Setup_done

let digest_of lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* ---------- output checks on a per-class report ---------- *)

let check_classes classes (all : Workload.Driver.class_report) =
  let open Workload.Driver in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let hist c = Stats.Log_histogram.total c.hist in
  List.iter
    (fun c ->
      if c.issued <> c.ok + c.timed_out + c.failed then
        fail "%s: issued %d <> ok %d + timed_out %d + failed %d" c.cls c.issued
          c.ok c.timed_out c.failed;
      if hist c <> c.ok then
        fail "%s: histogram count %d <> ok %d" c.cls (hist c) c.ok)
    (classes @ [ all ]);
  List.iter
    (fun (field, f) ->
      let sum = List.fold_left (fun a c -> a + f c) 0 classes in
      if sum <> f all then fail "all.%s %d <> class sum %d" field (f all) sum)
    [
      ("issued", fun c -> c.issued);
      ("ok", fun c -> c.ok);
      ("slo_miss", fun c -> c.slo_miss);
      ("timed_out", fun c -> c.timed_out);
      ("failed", fun c -> c.failed);
      ("histogram", hist);
    ];
  let max_hops = List.fold_left (fun a c -> max a c.max_hops) 0 classes in
  if all.max_hops <> max_hops then
    fail "all.max_hops %d <> class max %d" all.max_hops max_hops;
  if all.issued = 0 then fail "no request issued";
  List.rev !errors

let request_outcome ~table ~(all : Workload.Driver.class_report) ~classes
    ~hop_msgs ~max_group_load ~total_bits =
  let tail =
    Printf.sprintf "hop_msgs=%d max_group_load=%d total_bits=%d" hop_msgs
      max_group_load total_bits
  in
  let errors =
    check_classes classes all
    @ if hop_msgs <= 0 then [ "no hop message" ] else []
  in
  {
    ops = all.issued;
    failed = all.issued - all.ok;
    hop_msgs;
    digest = digest_of (table @ [ tail ]);
    summary =
      Printf.sprintf "issued=%d ok=%d timed_out=%d failed=%d %s" all.issued
        all.ok all.timed_out all.failed tail;
    errors;
    wall = 0.0;
    setup = 0.0;
    layers = [];
    rounds = [];
  }

(* ---------- Driver workloads: the backend hooks, timed from outside ---------- *)

type counts = { mutable hops : float; mutable oks : float }

type probe = {
  create : Probe.acc;
  observe : Probe.acc;
  mark : Probe.acc;
  churn : Probe.acc;
  maint : Probe.acc;
  entry : Probe.acc;
  serve : Probe.acc;
  served : counts;
  start : float array;  (** start of each round; the last slot is run end *)
  reconf : float array;  (** [reconfigure] seconds per round *)
}

let probe rounds =
  {
    create = Probe.acc ();
    observe = Probe.acc ();
    mark = Probe.acc ();
    churn = Probe.acc ();
    maint = Probe.acc ();
    entry = Probe.acc ();
    serve = Probe.acc ();
    served = { hops = 0.0; oks = 0.0 };
    start = Array.make (rounds + 1) 0.0;
    reconf = Array.make rounds 0.0;
  }

(* Marks round 0 with one clock read and otherwise forwards every hook. *)
module Stamp
    (B : Workload.Backend_intf.S)
    (M : sig
      val round0 : float ref
      val stop : bool
    end) : Workload.Backend_intf.S = struct
  include B

  let reconfigure t ~round =
    if round = 0 then begin
      M.round0 := Probe.now ();
      if M.stop then raise Setup_done
    end;
    B.reconfigure t ~round
end

(* Times every hook that does layer work; [begin_round], [emit_round],
   [note_fields], [health] and [max_group_load] are driver bookkeeping and
   stay in [driver.self_s]. *)
module Timed
    (B : Workload.Backend_intf.S)
    (P : sig
      val p : probe
    end) : Workload.Backend_intf.S = struct
  include B

  let p = P.p
  let create ctx = Probe.time p.create (fun () -> B.create ctx)

  let reconfigure t ~round =
    let t0 = Probe.now () in
    p.start.(round) <- t0;
    B.reconfigure t ~round;
    p.reconf.(round) <- Probe.now () -. t0

  let observe t = Probe.time p.observe (fun () -> B.observe t)

  let churn t ~rng ~was_down ~down =
    Probe.time p.churn (fun () -> B.churn t ~rng ~was_down ~down)

  let mark_attack t ~into = Probe.time p.mark (fun () -> B.mark_attack t ~into)
  let maintain t = Probe.time p.maint (fun () -> B.maintain t)
  let entry t ~rng = Probe.time p.entry (fun () -> B.entry t ~rng)

  let served (r : Workload.Backend_intf.op_result) =
    p.served.hops <- p.served.hops +. float_of_int r.hops;
    if r.ok then p.served.oks <- p.served.oks +. 1.0;
    r

  let serve f = served (Probe.time p.serve f)
  let get t ~entry key = serve (fun () -> B.get t ~entry key)
  let put t ~entry key v = serve (fun () -> B.put t ~entry key v)
  let publish t ~entry ~topic v = serve (fun () -> B.publish t ~entry ~topic v)
  let last_seq t ~entry ~topic = serve (fun () -> B.last_seq t ~entry ~topic)
end

let sum_array a = Array.fold_left ( +. ) 0.0 a

(* Per-layer metrics of one traced Driver run; [t0]/[t1] bracket it.  Both
   driver workloads run without reshuffles, so [reconfigure] counts only
   towards the hooks and the reshuffle.* metrics are left at 0. *)
let driver_layers p ~t0 ~t1 ~hop_msgs =
  let rounds = Array.length p.reconf in
  p.start.(rounds) <- t1;
  let hooks =
    sum_array p.reconf
    +. List.fold_left
         (fun s (a : Probe.acc) -> s +. a.busy)
         0.0
         [ p.observe; p.mark; p.churn; p.maint; p.entry; p.serve ]
  in
  let setup = p.start.(0) -. t0 in
  let ops = p.serve.calls in
  ( [
      ("serve.ops", ops);
      ("serve.busy_s", p.serve.busy);
      ("serve.ns_per_op", 1e9 *. Probe.ratio p.serve.busy ops);
      ("serve.hops_per_op", Probe.ratio p.served.hops ops);
      ("serve.ok_ratio", Probe.ratio p.served.oks ops);
      ("serve.minor_words_per_op", Probe.ratio p.serve.alloc ops);
      ("entry.busy_s", p.entry.busy);
      ("adversary.observe_s", p.observe.busy);
      ("adversary.mark_s", p.mark.busy);
      ("maint.busy_s", p.maint.busy);
      ("churn.busy_s", p.churn.busy);
      ("driver.self_s", t1 -. p.start.(0) -. hooks);
      ("setup.create_s", p.create.busy);
      ("setup.schedule_s", setup -. p.create.busy);
      ("hop_msgs", float_of_int hop_msgs);
    ],
    List.init rounds (fun r -> p.start.(r + 1) -. p.start.(r)) )

let driver_workload ~name ~(backend : (module Workload.Backend_intf.S))
    ~(config : scale -> int * Workload.Driver.config) =
  let module B = (val backend) in
  let finish (r : Workload.Driver.report) =
    request_outcome
      ~table:(Workload.Driver.table_lines r)
      ~all:r.total ~classes:r.classes ~hop_msgs:r.hop_msgs
      ~max_group_load:r.max_group_load ~total_bits:r.total_bits
  in
  let untraced scale ~seed ~stop =
    let n, cfg = config scale in
    let round0 = ref nan in
    let module S =
      Stamp
        (B)
        (struct
          let round0 = round0
          let stop = stop
        end)
    in
    let t0 = Probe.now () in
    let r =
      match Workload.Driver.run_backend (module S) ~seed ~n cfg with
      | r -> Some r
      | exception Setup_done -> None
    in
    let t1 = Probe.now () in
    (r, t1 -. t0, !round0 -. t0)
  in
  let run scale ~seed ~traced =
    if not traced then
      let r, wall, setup = untraced scale ~seed ~stop:false in
      { (finish (Option.get r)) with wall; setup }
    else
      let n, cfg = config scale in
      let p = probe cfg.Workload.Driver.spec.Workload.Spec.rounds in
      let module T =
        Timed
          (B)
          (struct
            let p = p
          end)
      in
      let t0 = Probe.now () in
      let r = Workload.Driver.run_backend (module T) ~seed ~n cfg in
      let t1 = Probe.now () in
      let layers, rounds =
        driver_layers p ~t0 ~t1 ~hop_msgs:r.hop_msgs
      in
      { (finish r) with wall = t1 -. t0; setup = p.start.(0) -. t0; layers; rounds }
  in
  let setup_only scale ~seed =
    let _, _, setup = untraced scale ~seed ~stop:true in
    setup
  in
  { name; run; setup_only }

(* ---------- social: round-level layers from a timestamping trace sink ---------- *)

type social_marks = {
  mutable round0 : float;
  mutable round0_alloc : float;
  ends : float array;  (** end of each round (its [Round] event) *)
  ends_alloc : float array;
  reqs : counts;  (** [Request] events: served hops and ok statuses *)
  mutable requests : int;
}

let social_config scale =
  let n, users, rounds =
    match scale with Full -> (1 lsl 16, 4096, 32) | Small -> (1 lsl 10, 128, 24)
  in
  (* no session cycle: its server churn leaves a whole supernode group
     down until the next reshuffle on some seeds, failing posts *)
  let app = Apps.Social.config ~users ~rounds ~rate:0.25 () in
  ( n,
    Workload.Social.config ~mode:Workload.Driver.Reconfig ~period:8
      ~attack:Workload.Attack.Group_kill ~frac:0.1 ~domains:1 app )

let social_reshuffles r = r > 0 && r mod 8 = 0

let social_run ~traced ~stop scale ~seed =
  let n, cfg = social_config scale in
  let app = cfg.Workload.Social.app in
  let rounds = app.Apps.Social.rounds in
  let m =
    {
      round0 = nan;
      round0_alloc = 0.0;
      ends = Array.make rounds 0.0;
      ends_alloc = Array.make rounds 0.0;
      reqs = { hops = 0.0; oks = 0.0 };
      requests = 0;
    }
  in
  let emit (ev : Simnet.Trace.event) =
    match ev with
    | Note { name = "social/run"; _ } ->
        m.round0_alloc <- Probe.words ();
        m.round0 <- Probe.now ();
        if stop then raise Setup_done
    | Round { round; _ } when traced ->
        m.ends.(round) <- Probe.now ();
        m.ends_alloc.(round) <- Probe.words ()
    | Request { hops; status; _ } when traced ->
        m.requests <- m.requests + 1;
        m.reqs.hops <- m.reqs.hops +. float_of_int hops;
        if status = "ok" then m.reqs.oks <- m.reqs.oks +. 1.0
    | _ -> ()
  in
  let trace = Simnet.Trace.make ~emit ~close:ignore in
  (* the schedule is timed on its own, outside the run, because the
     runner builds it internally between the overlay and round 0 *)
  let schedule_s =
    if traced then begin
      let t = Probe.now () in
      ignore (Apps.Social.offline app ~seed);
      ignore (Apps.Social.schedule ~domains:1 app ~seed);
      Probe.now () -. t
    end
    else 0.0
  in
  let t0 = Probe.now () in
  let r =
    match Workload.Social.run ~trace ~seed ~n cfg with
    | r -> Some r
    | exception Setup_done -> None
  in
  let t1 = Probe.now () in
  let setup = m.round0 -. t0 in
  match r with
  | None -> (None, setup)
  | Some r ->
      let o =
        request_outcome
          ~table:(Workload.Social.table_lines r)
          ~all:r.total ~classes:r.classes ~hop_msgs:r.hop_msgs
          ~max_group_load:r.max_group_load ~total_bits:r.total_bits
      in
      let o = { o with wall = t1 -. t0; setup } in
      if not traced then (Some o, setup)
      else
        let before r = if r = 0 then m.round0 else m.ends.(r - 1) in
        let before_alloc r = if r = 0 then m.round0_alloc else m.ends_alloc.(r - 1) in
        let dur = List.init rounds (fun r -> m.ends.(r) -. before r) in
        let alloc = List.init rounds (fun r -> m.ends_alloc.(r) -. before_alloc r) in
        let split l =
          List.partition snd (List.mapi (fun r x -> (x, social_reshuffles r)) l)
          |> fun (s, p) -> (List.map fst s, List.map fst p)
        in
        let shuffled, plain = split dur in
        let shuffled_alloc, plain_alloc = split alloc in
        (* a reshuffle is the excess of its round over the median plain round *)
        let excess base xs =
          let m = Probe.median base in
          List.map (fun x -> Float.max 0.0 (x -. m)) xs
        in
        let reshuffle = excess plain shuffled in
        let reshuffle_busy = List.fold_left ( +. ) 0.0 reshuffle in
        let reshuffle_words =
          List.fold_left ( +. ) 0.0 (excess plain_alloc shuffled_alloc)
        in
        let in_rounds = List.fold_left ( +. ) 0.0 dur in
        let serve_busy = in_rounds -. reshuffle_busy in
        let ops = float_of_int m.requests in
        let errors =
          if m.requests = r.total.issued then o.errors
          else
            o.errors
            @ [
                Printf.sprintf "%d request events <> %d issued" m.requests
                  r.total.issued;
              ]
        in
        let layers =
          [
            ("reshuffle.calls", float_of_int (List.length shuffled));
            ("reshuffle.busy_s", reshuffle_busy);
            ("reshuffle.ms_p50", 1e3 *. Probe.median reshuffle);
            ("reshuffle.minor_words", reshuffle_words);
            ("serve.ops", ops);
            ("serve.busy_s", serve_busy);
            ("serve.ns_per_op", 1e9 *. Probe.ratio serve_busy ops);
            ("serve.hops_per_op", Probe.ratio m.reqs.hops ops);
            ("serve.ok_ratio", Probe.ratio m.reqs.oks ops);
            ( "serve.minor_words_per_op",
              Probe.ratio
                (List.fold_left ( +. ) 0.0 alloc -. reshuffle_words)
                ops );
            ("driver.self_s", t1 -. m.ends.(rounds - 1));
            ("setup.create_s", setup -. Float.min setup schedule_s);
            ("setup.schedule_s", Float.min setup schedule_s);
            ("hop_msgs", float_of_int r.hop_msgs);
          ]
        in
        (Some { o with errors; layers; rounds = dur }, setup)

let social =
  {
    name = "social-reconfig";
    run =
      (fun scale ~seed ~traced ->
        Option.get (fst (social_run ~traced ~stop:false scale ~seed)));
    setup_only =
      (fun scale ~seed -> snd (social_run ~traced:false ~stop:true scale ~seed));
  }

(* ---------- the request plane with the reshuffle bypassed ---------- *)

let dht_serve =
  driver_workload ~name:"dht-serve"
    ~backend:(module Workload.Backends.Robust)
    ~config:(fun scale ->
      let n, clients, rounds =
        match scale with
        | Full -> (1 lsl 16, 4096, 128)
        | Small -> (1 lsl 10, 128, 32)
      in
      let spec =
        Workload.Spec.make ~clients ~rounds
          ~arrivals:(Workload.Spec.Open_loop { rate = 1.0 })
          ~mix:{ Workload.Spec.read = 0.5; write = 0.3; publish = 0.2 }
          ()
      in
      (* duplicates roll the runtime's fault legs on every request without
         failing any: drops would fail a few requests per run *)
      let faults = Result.get_ok (Simnet.Faults.parse_spec "dup=0.01") in
      ( n,
        Workload.Driver.config ~mode:Workload.Driver.Static
          ~attack:Workload.Attack.Random_blocking ~frac:0.1
          ~churn:{ Workload.Driver.frac = 0.1; epoch = 8 }
          ~faults ~retries:2 ~domains:1 spec ))

(* ---------- Chord lookups and ring maintenance, no supernode code ---------- *)

let chord_churn =
  driver_workload ~name:"chord-churn"
    ~backend:(module Workload.Backends.Chord_ring)
    ~config:(fun scale ->
      (* 2^14 is the largest n the Chord id space admits *)
      let n, clients =
        match scale with Full -> (1 lsl 14, 1024) | Small -> (1 lsl 8, 64)
      in
      let spec =
        Workload.Spec.make ~clients ~rounds:24
          ~arrivals:(Workload.Spec.Open_loop { rate = 1.0 })
          ()
      in
      let chord =
        { Workload.Driver.fingers = None; succs = None; period = Some 1 }
      in
      ( n,
        Workload.Driver.config ~mode:Workload.Driver.Reconfig
          ~backend:(Workload.Driver.Chord chord)
          ~attack:Workload.Attack.Random_blocking ~frac:0.1
          ~churn:{ Workload.Driver.frac = 0.05; epoch = 16 }
          ~retries:2 ~domains:1 spec ))

(* ---------- Supernode_sampling on Simnet.Engine ---------- *)

let groupsim_run ~traced ~stop scale ~seed =
  let n = match scale with Full -> 1 lsl 12 | Small -> 1 lsl 9 in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let t0 = Probe.now () in
  (* the stream order of [overlay_sim groupsim --frac 0.1] *)
  let rng = Prng.Stream.of_seed seed in
  let cube = Topology.Hypercube.create (Core.Params.dos_dimension ~c:2.0 ~n) in
  let supernodes = Topology.Hypercube.node_count cube in
  let group_of = Array.init n (fun _ -> Prng.Stream.int rng supernodes) in
  let proto = Core.Supernode_sampling.protocol ~c:2.0 ~cube () in
  let gs_rng = Prng.Stream.split rng in
  let arng = Prng.Stream.split rng in
  let c0 = Probe.now () in
  let gs = Core.Group_sim.create ~domains ~rng:gs_rng ~n ~group_of proto in
  let create_s = Probe.now () -. c0 in
  let rounds = Core.Group_sim.network_rounds_total gs in
  let blocked =
    Array.init rounds (fun _ ->
        let b = Array.make n false in
        Array.iter
          (fun v -> b.(v) <- true)
          (Prng.Stream.sample_distinct arng n ~k:(n / 10));
        b)
  in
  let round0 = Probe.now () in
  if stop then (None, round0 -. t0)
  else begin
    let busy = Probe.acc () in
    let dur = Array.make rounds 0.0 in
    for r = 0 to rounds - 1 do
      if traced then begin
        let s = Probe.now () in
        Probe.time busy (fun () -> Core.Group_sim.run_round gs ~blocked:blocked.(r));
        dur.(r) <- Probe.now () -. s
      end
      else Core.Group_sim.run_round gs ~blocked:blocked.(r)
    done;
    let t1 = Probe.now () in
    let lost = Core.Group_sim.lost_groups gs in
    let counts = Array.make supernodes 0 in
    let states =
      List.init supernodes (fun x ->
          match Core.Group_sim.state_of gs x with
          | None -> "lost"
          | Some st ->
              let s = Core.Supernode_sampling.samples st in
              Array.iter (fun v -> counts.(v) <- counts.(v) + 1) s;
              String.concat "," (Array.to_list (Array.map string_of_int s)))
    in
    let p = Stats.Chi_square.test_uniform counts in
    let metrics = Core.Group_sim.metrics gs in
    let msgs = Simnet.Metrics.total_msgs metrics in
    let head =
      Printf.sprintf "lost=[%s] chi2_p=%.17g messages=%d max_node_bits=%d"
        (String.concat ";" (List.map string_of_int lost))
        p msgs
        (Simnet.Metrics.max_node_bits_ever metrics)
    in
    let errors =
      List.concat
        [
          (if Core.Group_sim.finished gs then [] else [ "run not finished" ]);
          (* a uniform sampler falls below 1e-6 once in a million seeds *)
          (if Float.is_finite p && p >= 1e-6 && p <= 1.0 then []
           else [ Printf.sprintf "sample chi-square p = %g" p ]);
          (if msgs > 0 then [] else [ "no message" ]);
        ]
    in
    let layers =
      if not traced then []
      else
        [
          ("group_sim.round_busy_s", busy.busy);
          ("group_sim.ns_per_msg", 1e9 *. Probe.ratio busy.busy (float_of_int msgs));
          ( "group_sim.minor_words_per_msg",
            Probe.ratio busy.alloc (float_of_int msgs) );
          ("driver.self_s", t1 -. round0 -. busy.busy);
          ("setup.create_s", create_s);
          ("setup.schedule_s", round0 -. t0 -. create_s);
          ("hop_msgs", float_of_int msgs);
        ]
    in
    ( Some
        {
          wall = t1 -. t0;
          setup = round0 -. t0;
          ops = supernodes;
          failed = List.length lost;
          hop_msgs = msgs;
          digest = digest_of (head :: states);
          summary = head;
          errors;
          layers;
          rounds = (if traced then Array.to_list dur else []);
        },
      round0 -. t0 )
  end

let groupsim =
  {
    name = "groupsim-engine";
    run =
      (fun scale ~seed ~traced ->
        Option.get (fst (groupsim_run ~traced ~stop:false scale ~seed)));
    setup_only =
      (fun scale ~seed -> snd (groupsim_run ~traced:false ~stop:true scale ~seed));
  }

let all = [ social; dht_serve; chord_churn; groupsim ]
