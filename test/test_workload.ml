(* Tests for the workload subsystem: spec parsing, deterministic generation,
   the driver's accounting invariants, and the E16 shape (reconfiguration
   keeps goodput while the static baseline collapses under group-kill). *)

let seed = 0x57AB_1E5EL

(* ---------- Spec ---------- *)

let test_spec_defaults_and_guards () =
  let s = Workload.Spec.make () in
  Alcotest.(check int) "clients" 128 s.Workload.Spec.clients;
  let sum =
    s.Workload.Spec.mix.Workload.Spec.read
    +. s.Workload.Spec.mix.Workload.Spec.write
    +. s.Workload.Spec.mix.Workload.Spec.publish
  in
  Alcotest.(check bool) "mix normalized" true (abs_float (sum -. 1.0) < 1e-9);
  (try
     ignore (Workload.Spec.make ~keys:(1 lsl 20) ());
     Alcotest.fail "keys >= 2^20 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Workload.Spec.make ~arrivals:(Workload.Spec.Open_loop { rate = 0.0 }) ());
    Alcotest.fail "zero rate accepted"
  with Invalid_argument _ -> ()

let test_spec_parsers () =
  (match Workload.Spec.parse_arrivals "open:0.5" with
  | Ok (Workload.Spec.Open_loop { rate }) ->
      Alcotest.(check (float 1e-9)) "rate" 0.5 rate
  | _ -> Alcotest.fail "open:0.5");
  (match Workload.Spec.parse_arrivals "closed:3" with
  | Ok (Workload.Spec.Closed_loop { think }) ->
      Alcotest.(check int) "think" 3 think
  | _ -> Alcotest.fail "closed:3");
  (match Workload.Spec.parse_arrivals "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted");
  (match Workload.Spec.parse_mix "read=1,write=1,publish=2" with
  | Ok m ->
      Alcotest.(check (float 1e-9)) "normalized publish" 0.5
        m.Workload.Spec.publish
  | Error e -> Alcotest.fail e);
  match Workload.Spec.parse_mix "read=1,bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown class accepted"

(* ---------- Gen ---------- *)

let spec_small =
  Workload.Spec.make ~clients:16 ~rounds:20 ~keys:64
    ~arrivals:(Workload.Spec.Open_loop { rate = 0.5 })
    ()

let test_gen_schedule_sorted_and_in_range () =
  let sched = Workload.Gen.open_schedule ~spec:spec_small ~seed () in
  Alcotest.(check bool) "non-empty" true (Array.length sched > 0);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "arrival in range" true
        (r.Workload.Gen.arrival >= 0
        && r.Workload.Gen.arrival < spec_small.Workload.Spec.rounds);
      Alcotest.(check bool) "key in range" true
        (r.Workload.Gen.key >= 0
        && r.Workload.Gen.key < spec_small.Workload.Spec.keys);
      if i > 0 then
        Alcotest.(check bool) "sorted by arrival" true
          (sched.(i - 1).Workload.Gen.arrival <= r.Workload.Gen.arrival))
    sched

let test_gen_schedule_domain_independent () =
  let a = Workload.Gen.open_schedule ~domains:1 ~spec:spec_small ~seed () in
  let b = Workload.Gen.open_schedule ~domains:4 ~spec:spec_small ~seed () in
  Alcotest.(check bool) "identical schedules" true (a = b)

let test_gen_client_streams_are_keyed () =
  (* client 3's requests do not depend on how many other clients exist *)
  let wide =
    Workload.Spec.make ~clients:32 ~rounds:20 ~keys:64
      ~arrivals:(Workload.Spec.Open_loop { rate = 0.5 })
      ()
  in
  let of_client c sched =
    Array.to_list
      (Array.of_seq
         (Seq.filter
            (fun r -> r.Workload.Gen.client = c)
            (Array.to_seq sched)))
  in
  let narrow_sched = Workload.Gen.open_schedule ~spec:spec_small ~seed () in
  let wide_sched = Workload.Gen.open_schedule ~spec:wide ~seed () in
  Alcotest.(check bool) "client 3 stream unchanged" true
    (of_client 3 narrow_sched = of_client 3 wide_sched)

(* ---------- Driver ---------- *)

let run_with ?(n = 256) ?trace cfg =
  Workload.Driver.run ?trace ~seed ~n cfg

let collect_trace f =
  let buf = Buffer.create 4096 in
  let t =
    Simnet.Trace.make
      ~emit:(fun ev ->
        Buffer.add_string buf (Simnet.Trace.jsonl_of_event ev);
        Buffer.add_char buf '\n')
      ~close:ignore
  in
  let r = f t in
  (r, Buffer.contents buf)

let counts (r : Workload.Driver.report) =
  let t = r.Workload.Driver.total in
  ( t.Workload.Driver.issued,
    t.Workload.Driver.ok,
    t.Workload.Driver.timed_out,
    t.Workload.Driver.failed )

let test_driver_no_attack_serves_everything () =
  let cfg = Workload.Driver.config spec_small in
  let r = run_with cfg in
  let issued, ok, timeout, failed = counts r in
  Alcotest.(check bool) "issued > 0" true (issued > 0);
  Alcotest.(check int) "all served" issued ok;
  Alcotest.(check int) "no timeouts" 0 timeout;
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check (float 1e-9)) "goodput 1" 1.0
    (Workload.Driver.goodput r.Workload.Driver.total)

let test_driver_accounting_invariants () =
  let cfg =
    Workload.Driver.config ~attack:Workload.Attack.Group_kill ~frac:0.2
      ~retries:2
      ~faults:(Simnet.Faults.make ~drop:0.05 ())
      spec_small
  in
  let r = run_with cfg in
  let t = r.Workload.Driver.total in
  (* per-class counts add up, and every issued request ended exactly one way *)
  List.iter
    (fun (c : Workload.Driver.class_report) ->
      Alcotest.(check int)
        (c.Workload.Driver.cls ^ " conservation")
        c.Workload.Driver.issued
        (c.Workload.Driver.ok + c.Workload.Driver.timed_out
       + c.Workload.Driver.failed))
    r.Workload.Driver.classes;
  Alcotest.(check int) "issued = sum classes" t.Workload.Driver.issued
    (List.fold_left
       (fun a c -> a + c.Workload.Driver.issued)
       0 r.Workload.Driver.classes);
  (* the overall histogram is the merge of the class histograms *)
  Alcotest.(check int) "merged histogram covers all served"
    t.Workload.Driver.ok
    (Stats.Log_histogram.total t.Workload.Driver.hist)

let test_driver_deterministic_and_trace_stable () =
  let cfg =
    Workload.Driver.config ~attack:Workload.Attack.Group_kill ~frac:0.2
      ~churn:{ Workload.Driver.frac = 0.1; epoch = 4 }
      ~faults:(Simnet.Faults.make ~drop:0.05 ())
      ~retries:3 spec_small
  in
  let r1, t1 = collect_trace (fun t -> run_with ~trace:t cfg) in
  let r2, t2 = collect_trace (fun t -> run_with ~trace:t cfg) in
  Alcotest.(check string) "byte-identical traces" t1 t2;
  Alcotest.(check bool) "same tables" true
    (Workload.Driver.table_lines r1 = Workload.Driver.table_lines r2)

let test_driver_domains_do_not_change_results () =
  let c1 = Workload.Driver.config ~domains:1 spec_small in
  let c4 = Workload.Driver.config ~domains:4 spec_small in
  let r1, t1 = collect_trace (fun t -> run_with ~trace:t c1) in
  let r4, t4 = collect_trace (fun t -> run_with ~trace:t c4) in
  Alcotest.(check string) "byte-identical traces across domains" t1 t4;
  Alcotest.(check bool) "same tables" true
    (Workload.Driver.table_lines r1 = Workload.Driver.table_lines r4)

let test_driver_inert_fault_plan_is_identity () =
  (* a zero-rate plan must not perturb a single coin flip *)
  let plain = Workload.Driver.config spec_small in
  let inert =
    Workload.Driver.config ~faults:(Simnet.Faults.make ()) spec_small
  in
  let r1, t1 = collect_trace (fun t -> run_with ~trace:t plain) in
  let r2, t2 = collect_trace (fun t -> run_with ~trace:t inert) in
  Alcotest.(check string) "identical traces" t1 t2;
  Alcotest.(check bool) "identical tables" true
    (Workload.Driver.table_lines r1 = Workload.Driver.table_lines r2)

let test_driver_closed_loop_one_outstanding () =
  let spec =
    Workload.Spec.make ~clients:8 ~rounds:30 ~keys:32
      ~arrivals:(Workload.Spec.Closed_loop { think = 2 })
      ()
  in
  let r = run_with (Workload.Driver.config spec) in
  let issued, ok, _, _ = counts r in
  Alcotest.(check bool) "each client issued at least once" true (issued >= 8);
  Alcotest.(check bool) "one outstanding per client bounds issues" true
    (issued <= 8 * 30);
  Alcotest.(check int) "all served" issued ok

(* The E16 / Theorem 8 shape, on a test-sized instance. *)
let test_driver_reconfig_survives_static_collapses () =
  let spec =
    Workload.Spec.make ~clients:32 ~rounds:32 ~keys:256
      ~arrivals:(Workload.Spec.Open_loop { rate = 0.5 })
      ~popularity:(Workload.Spec.Zipf 1.1) ()
  in
  let attacked mode =
    Workload.Driver.config ~mode ~period:8 ~lateness:8
      ~attack:Workload.Attack.Group_kill ~frac:0.2
      ~faults:(Simnet.Faults.make ~drop:0.05 ())
      ~retries:3 spec
  in
  let reconfig =
    run_with ~n:512 (attacked Workload.Driver.Reconfig)
  in
  let static = run_with ~n:512 (attacked Workload.Driver.Static) in
  let g_r = Workload.Driver.goodput reconfig.Workload.Driver.total in
  let g_s = Workload.Driver.goodput static.Workload.Driver.total in
  Alcotest.(check bool)
    (Printf.sprintf "reconfig goodput %.3f >= 0.99" g_r)
    true (g_r >= 0.99);
  Alcotest.(check bool)
    (Printf.sprintf "static goodput %.3f collapses below 0.9" g_s)
    true (g_s < 0.9);
  Alcotest.(check bool) "visible gap" true (g_r -. g_s >= 0.1)

(* ---------- Plane.decode ---------- *)

let test_plane_decode () =
  let dec ?static kvs =
    match Simnet.Scenario.of_args kvs with
    | Ok sc -> Workload.Plane.decode ?static sc
    | Error e -> Alcotest.fail e
  in
  let open Workload.Plane in
  Alcotest.(check bool) "default" true
    (dec [] = (Reconfig, Robust, Workload.Attack.No_attack));
  Alcotest.(check bool) "static ablation" true
    (dec [ ("backend", "static"); ("adversary", "group-kill") ]
    = (Static, Robust, Workload.Attack.Group_kill));
  Alcotest.(check bool) "chord knobs, static forced" true
    (dec ~static:true [ ("backend", "chord"); ("chord-succs", "3") ]
    = ( Static,
        Chord { fingers = None; succs = Some 3; period = None },
        Workload.Attack.No_attack ));
  List.iter
    (fun kvs ->
      match dec kvs with
      | _ -> Alcotest.failf "%s accepted" (snd (List.hd kvs))
      | exception Invalid_argument _ -> ())
    [ [ ("backend", "kademlia") ]; [ ("adversary", "succ-kill") ] ]

let () =
  Alcotest.run "workload"
    [
      ( "spec",
        [
          Alcotest.test_case "defaults and guards" `Quick
            test_spec_defaults_and_guards;
          Alcotest.test_case "parsers" `Quick test_spec_parsers;
        ] );
      ( "gen",
        [
          Alcotest.test_case "schedule sorted, in range" `Quick
            test_gen_schedule_sorted_and_in_range;
          Alcotest.test_case "domain independent" `Quick
            test_gen_schedule_domain_independent;
          Alcotest.test_case "client streams keyed" `Quick
            test_gen_client_streams_are_keyed;
        ] );
      ("plane", [ Alcotest.test_case "decode" `Quick test_plane_decode ]);
      ( "driver",
        [
          Alcotest.test_case "no attack serves everything" `Quick
            test_driver_no_attack_serves_everything;
          Alcotest.test_case "accounting invariants" `Quick
            test_driver_accounting_invariants;
          Alcotest.test_case "deterministic traces" `Quick
            test_driver_deterministic_and_trace_stable;
          Alcotest.test_case "domain-count independent" `Quick
            test_driver_domains_do_not_change_results;
          Alcotest.test_case "inert fault plan is identity" `Quick
            test_driver_inert_fault_plan_is_identity;
          Alcotest.test_case "closed loop" `Quick
            test_driver_closed_loop_one_outstanding;
          Alcotest.test_case "reconfig survives, static collapses (Thm 8)"
            `Slow test_driver_reconfig_survives_static_collapses;
        ] );
    ]
