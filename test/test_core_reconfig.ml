(* Tests for Algorithm 3 (cycle reconfiguration), the churn network, the
   churn adversaries, and the static baseline (Section 4). *)

let rng () = Testutil.rng ()

let ring n = Array.init n (fun i -> (i + 1) mod n)

(* take_sample that draws directly from a stream (ideal sampling oracle) *)
let oracle r n _v = Prng.Stream.int r n

(* ---------- Reconfig: structure ---------- *)

let test_reconfig_identity_population () =
  (* no churn: the new cycle covers exactly the same m = n labels *)
  let n = 64 in
  let r = rng () in
  let out_label = Array.init n (fun i -> i) in
  let joiner_labels = Array.make n [||] in
  match
    Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
      ~joiner_labels ~take_sample:(oracle r n) ~m:n ()
  with
  | None -> Alcotest.fail "reconfiguration failed"
  | Some (new_succ, stats) ->
      Alcotest.(check bool) "new cycle is Hamiltonian" true
        (Topology.Hgraph.is_hamilton_cycle new_succ);
      Alcotest.(check bool) "some nodes active" true (stats.Core.Reconfig.active > 0);
      Alcotest.(check bool) "rounds small" true (stats.Core.Reconfig.rounds < 40)

let test_reconfig_with_leavers () =
  let n = 50 in
  let r = rng () in
  (* nodes 0..9 leave; stayers get labels 0..39 *)
  let out_label = Array.init n (fun i -> if i < 10 then -1 else i - 10) in
  let joiner_labels = Array.make n [||] in
  match
    Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
      ~joiner_labels ~take_sample:(oracle r n) ~m:40 ()
  with
  | None -> Alcotest.fail "reconfiguration failed"
  | Some (new_succ, _) ->
      Alcotest.(check int) "cycle over stayers only" 40 (Array.length new_succ);
      Alcotest.(check bool) "hamiltonian" true
        (Topology.Hgraph.is_hamilton_cycle new_succ)

let test_reconfig_with_joiners () =
  let n = 30 in
  let r = rng () in
  let out_label = Array.init n (fun i -> i) in
  let joiner_labels = Array.make n [||] in
  (* node 3 introduces two joiners, node 7 one *)
  joiner_labels.(3) <- [| 30; 31 |];
  joiner_labels.(7) <- [| 32 |];
  match
    Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
      ~joiner_labels ~take_sample:(oracle r n) ~m:33 ()
  with
  | None -> Alcotest.fail "reconfiguration failed"
  | Some (new_succ, _) ->
      Alcotest.(check int) "joiners included" 33 (Array.length new_succ);
      Alcotest.(check bool) "hamiltonian" true
        (Topology.Hgraph.is_hamilton_cycle new_succ)

let test_reconfig_label_validation () =
  let n = 10 in
  let r = rng () in
  let joiner_labels = Array.make n [||] in
  (* duplicate label 0 *)
  let out_label = Array.init n (fun i -> if i <= 1 then 0 else i) in
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Reconfig: duplicate label") (fun () ->
      ignore
        (Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
           ~joiner_labels ~take_sample:(oracle r n) ~m:n ()))

let test_reconfig_missing_label () =
  let n = 10 in
  let r = rng () in
  let joiner_labels = Array.make n [||] in
  let out_label = Array.init n (fun i -> if i = 0 then -1 else i) in
  (* label 0 never assigned but m = 10 *)
  Alcotest.check_raises "missing label"
    (Invalid_argument "Reconfig: label 0 never assigned") (fun () ->
      ignore
        (Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
           ~joiner_labels ~take_sample:(oracle r n) ~m:n ()))

let test_reconfig_empty () =
  let n = 5 in
  let r = rng () in
  let out_label = Array.make n (-1) in
  let joiner_labels = Array.make n [||] in
  Alcotest.(check bool) "m = 0 reports failure" true
    (Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
       ~joiner_labels ~take_sample:(oracle r n) ~m:0 ()
    = None)

(* ---------- Reconfig: fault injection (typed failures, reply retries) -- *)

let test_reconfig_typed_failure_on_lost_replies () =
  (* Every pointer-doubling reply lost, no retry budget: the run must fail
     with a typed Replies_lost, never hand back a cycle. *)
  let n = 32 in
  let r = rng () in
  let out_label = Array.init n (fun i -> i) in
  let joiner_labels = Array.make n [||] in
  match
    Core.Reconfig.reconfigure ~rng:r ~succ:(ring n) ~out_label ~joiner_labels
      ~drop:(fun () -> true)
      ~take_sample:(oracle r n) ~m:n ()
  with
  | Ok _ -> Alcotest.fail "lost replies must not produce a cycle"
  | Error (Core.Reconfig.Replies_lost f) ->
      Alcotest.(check bool) "stalled nodes reported" true (f.stalled > 0);
      Alcotest.(check bool) "losses counted" true (f.lost > 0)
  | Error Core.Reconfig.No_active_nodes -> Alcotest.fail "wrong failure kind"

let test_reconfig_retry_recovers_lost_replies () =
  (* Drop the first few replies; a retry budget re-issues them and the run
     completes with a valid Hamilton cycle and a retry count. *)
  let n = 32 in
  let r = rng () in
  let out_label = Array.init n (fun i -> i) in
  let joiner_labels = Array.make n [||] in
  (* retries for one node are consecutive, so keep the loss burst within a
     single node's budget *)
  let remaining = ref 2 in
  let drop () =
    if !remaining > 0 then begin
      decr remaining;
      true
    end
    else false
  in
  match
    Core.Reconfig.reconfigure ~rng:r ~succ:(ring n) ~out_label ~joiner_labels
      ~drop ~max_retries:3 ~take_sample:(oracle r n) ~m:n ()
  with
  | Error f -> Alcotest.failf "failed: %s" (Core.Reconfig.describe_failure f)
  | Ok (new_succ, stats) ->
      Alcotest.(check bool) "hamiltonian" true
        (Topology.Hgraph.is_hamilton_cycle new_succ);
      Alcotest.(check int) "every loss was retried" 2
        stats.Core.Reconfig.reply_retries

let test_reconfig_no_active_nodes_typed () =
  let n = 5 in
  let r = rng () in
  let out_label = Array.make n (-1) in
  let joiner_labels = Array.make n [||] in
  match
    Core.Reconfig.reconfigure ~rng:r ~succ:(ring n) ~out_label ~joiner_labels
      ~take_sample:(oracle r n) ~m:0 ()
  with
  | Error Core.Reconfig.No_active_nodes -> ()
  | Error f -> Alcotest.failf "wrong kind: %s" (Core.Reconfig.describe_failure f)
  | Ok _ -> Alcotest.fail "m = 0 must fail"

let test_churn_network_fault_epoch_keeps_old_topology () =
  (* A fault plan that kills every reply with no recovery budget: the epoch
     fails typed, the old topology stands, and nothing is silently wrong. *)
  let n = 64 in
  let s = rng () in
  let faults = Simnet.Faults.make ~drop:1.0 () in
  let net =
    Core.Churn_network.create ~faults ~rng:(Prng.Stream.split s) ~n ()
  in
  let before = Core.Churn_network.graph net in
  let r = Core.Churn_network.epoch net ~leaves:[||] ~join_introducers:[||] in
  Alcotest.(check bool) "epoch failed" false r.Core.Churn_network.valid;
  Alcotest.(check bool) "typed reason attached" true
    (Option.is_some r.Core.Churn_network.failure);
  Alcotest.(check bool) "stale pointers counted" true
    (r.Core.Churn_network.stale_pointers > 0);
  Alcotest.(check bool) "old topology stands" true
    (Core.Churn_network.graph net == before);
  Alcotest.(check (float 1e-9)) "old topology still fully reachable" 1.0
    r.Core.Churn_network.reachable_fraction

let test_churn_network_fault_epoch_recovers_with_retry () =
  let n = 64 in
  let s = rng () in
  let faults = Simnet.Faults.make ~drop:0.05 () in
  let net =
    Core.Churn_network.create ~faults
      ~retry:(Core.Retry.make ~max_retries:4 ())
      ~rng:(Prng.Stream.split s) ~n ()
  in
  let r = Core.Churn_network.epoch net ~leaves:[||] ~join_introducers:[||] in
  Alcotest.(check bool) "epoch valid under faults" true
    r.Core.Churn_network.valid;
  Alcotest.(check bool) "connected" true r.Core.Churn_network.connected;
  Alcotest.(check int) "no stale pointers" 0
    r.Core.Churn_network.stale_pointers;
  Alcotest.(check bool) "losses were retried" true
    (r.Core.Churn_network.reply_retries > 0);
  Alcotest.(check (option string)) "no failure" None
    r.Core.Churn_network.failure

(* ---------- Reconfig: uniformity (Lemma 10 / Theorem 4) ---------- *)

let test_reconfig_uniform_over_cycles () =
  (* n = 5: there are 4! = 24 directed Hamilton cycles fixing node 0's
     position as the start.  Encode the new cycle as the tour starting at
     label 0 and chi-square against uniformity. *)
  let n = 5 in
  let r = rng () in
  let out_label = Array.init n (fun i -> i) in
  let joiner_labels = Array.make n [||] in
  let counts = Hashtbl.create 24 in
  let trials = 24_000 in
  for _ = 1 to trials do
    match
      Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
        ~joiner_labels ~take_sample:(oracle r n) ~m:n ()
    with
    | None -> Alcotest.fail "reconfiguration failed"
    | Some (new_succ, _) ->
        let tour = Buffer.create 8 in
        let v = ref new_succ.(0) in
        while !v <> 0 do
          Buffer.add_string tour (string_of_int !v);
          v := new_succ.(!v)
        done;
        let key = Buffer.contents tour in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "all 24 cycles reached" 24 (Hashtbl.length counts);
  let observed = Array.of_seq (Seq.map snd (Hashtbl.to_seq counts)) in
  Alcotest.(check bool) "uniform over cycles (chi-square)" true
    (Stats.Chi_square.test_uniform observed > 0.001)

(* ---------- Reconfig: congestion and segments (Lemmas 11-13) ---------- *)

let test_reconfig_stats_bounds () =
  let n = 2048 in
  let r = rng () in
  let out_label = Array.init n (fun i -> i) in
  let joiner_labels = Array.make n [||] in
  match
    Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
      ~joiner_labels ~take_sample:(oracle r n) ~m:n ()
  with
  | None -> Alcotest.fail "reconfiguration failed"
  | Some (_, stats) ->
      (* Lemma 11: polylog congestion (log2 2048 = 11; allow a couple of
         log factors of slack) *)
      Alcotest.(check bool)
        (Printf.sprintf "congestion %d polylog" stats.Core.Reconfig.max_chosen)
        true
        (stats.Core.Reconfig.max_chosen <= 33);
      (* Lemma 12: polylog empty segments *)
      Alcotest.(check bool)
        (Printf.sprintf "empty segment %d polylog" stats.Core.Reconfig.max_empty_segment)
        true
        (stats.Core.Reconfig.max_empty_segment <= 44);
      (* Lemma 13: O(log log n) rounds; doubling steps <= log2(max segment)+1 *)
      Alcotest.(check bool)
        (Printf.sprintf "doubling steps %d" stats.Core.Reconfig.doubling_steps)
        true
        (stats.Core.Reconfig.doubling_steps <= 7)

(* ---------- Churn network (Theorem 5) ---------- *)

let test_churn_network_no_churn_epoch () =
  let net = Core.Churn_network.create ~rng:(rng ()) ~n:256 () in
  let r = Core.Churn_network.epoch net ~leaves:[||] ~join_introducers:[||] in
  Alcotest.(check bool) "valid" true r.Core.Churn_network.valid;
  Alcotest.(check bool) "connected" true r.Core.Churn_network.connected;
  Alcotest.(check int) "size unchanged" 256 r.Core.Churn_network.n_after;
  Alcotest.(check int) "graph updated" 256 (Core.Churn_network.size net)

let test_churn_network_epochs_with_churn () =
  let s = rng () in
  let net = Core.Churn_network.create ~rng:(Prng.Stream.split s) ~n:300 () in
  for _ = 1 to 5 do
    let n = Core.Churn_network.size net in
    let plan =
      Core.Churn_adversary.plan Core.Churn_adversary.Random_churn
        ~rng:(Prng.Stream.split s)
        ~graph:(Core.Churn_network.graph net) ~leave_frac:0.3 ~join_frac:0.3
    in
    let r =
      Core.Churn_network.epoch net ~leaves:plan.Core.Churn_adversary.leaves
        ~join_introducers:plan.Core.Churn_adversary.join_introducers
    in
    Alcotest.(check bool) "valid epoch" true r.Core.Churn_network.valid;
    Alcotest.(check bool) "connected" true r.Core.Churn_network.connected;
    Alcotest.(check int) "bookkeeping"
      (n - r.Core.Churn_network.left + r.Core.Churn_network.joined)
      r.Core.Churn_network.n_after
  done

let test_churn_network_ids_persist () =
  let s = rng () in
  let net = Core.Churn_network.create ~rng:(Prng.Stream.split s) ~n:100 () in
  let before = Core.Churn_network.ids net in
  (* everyone stays: the id multiset must be preserved *)
  let r = Core.Churn_network.epoch net ~leaves:[||] ~join_introducers:[||] in
  Alcotest.(check bool) "valid" true r.Core.Churn_network.valid;
  let after = Core.Churn_network.ids net in
  Alcotest.(check (list int)) "same ids"
    (List.sort compare (Array.to_list before))
    (List.sort compare (Array.to_list after))

let test_churn_network_leaver_ids_gone () =
  let s = rng () in
  let net = Core.Churn_network.create ~rng:(Prng.Stream.split s) ~n:100 () in
  let gone = [| 0; 5; 99 |] in
  let gone_ids = Array.map (fun p -> (Core.Churn_network.ids net).(p)) gone in
  ignore (Core.Churn_network.epoch net ~leaves:gone ~join_introducers:[||]);
  let after = Core.Churn_network.ids net in
  Array.iter
    (fun id ->
      Alcotest.(check bool) "leaver id absent" false (Array.mem id after))
    gone_ids;
  Alcotest.(check int) "three fewer nodes" 97 (Core.Churn_network.size net)

let test_churn_network_min_size_guard () =
  let net = Core.Churn_network.create ~rng:(rng ()) ~n:10 () in
  let leaves = Array.init 9 (fun i -> i) in
  Alcotest.check_raises "too small"
    (Invalid_argument "Churn_network.epoch: surviving network too small")
    (fun () -> ignore (Core.Churn_network.epoch net ~leaves ~join_introducers:[||]))

let test_churn_rounds_loglog_shape () =
  (* Epoch round count should grow by O(1) as n doubles repeatedly. *)
  let rounds_at n =
    let net = Core.Churn_network.create ~rng:(rng ()) ~n () in
    let r = Core.Churn_network.epoch net ~leaves:[||] ~join_introducers:[||] in
    r.Core.Churn_network.rounds
  in
  let r256 = rounds_at 256 and r4096 = rounds_at 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "rounds grow slowly: %d -> %d" r256 r4096)
    true
    (r4096 - r256 <= 6)

let test_delegation_chains () =
  (* Joiners introduced to other joiners resolve transitively to a member
     (Section 1.1's delegation rule). *)
  let net = Core.Churn_network.create ~rng:(rng ()) ~n:100 () in
  let r =
    Core.Churn_network.epoch_with_delegation net ~leaves:[||]
      ~join_introducers:
        [| `Member 5; `Joiner 0; `Joiner 1; `Member 9; `Joiner 3 |]
  in
  Alcotest.(check bool) "valid" true r.Core.Churn_network.valid;
  Alcotest.(check int) "all five joined" 105 r.Core.Churn_network.n_after;
  (* the chain 2 -> 1 -> 0 -> member 5 concentrates three joiners on one
     delegate *)
  Alcotest.(check bool) "delegate load reflects chains" true
    (r.Core.Churn_network.max_joiners_per_node >= 3)

let test_delegation_cycle_rejected () =
  let net = Core.Churn_network.create ~rng:(rng ()) ~n:50 () in
  Alcotest.check_raises "cycle detected"
    (Invalid_argument "Churn_network: cyclic introduction chain") (fun () ->
      ignore
        (Core.Churn_network.epoch_with_delegation net ~leaves:[||]
           ~join_introducers:[| `Joiner 1; `Joiner 0 |]))

let test_plain_walk_sampler_ablation () =
  (* Ablation A1: the plain-walk sampler must produce the same valid,
     connected reconfigurations — just with Theta(log n) epoch rounds. *)
  let s = rng () in
  let fast =
    Core.Churn_network.create ~rng:(Prng.Stream.split s) ~n:512 ()
  in
  let slow =
    Core.Churn_network.create ~sampler:Core.Churn_network.Plain_walks
      ~rng:(Prng.Stream.split s) ~n:512 ()
  in
  let rf = Core.Churn_network.epoch fast ~leaves:[| 1 |] ~join_introducers:[| 0 |] in
  let rs = Core.Churn_network.epoch slow ~leaves:[| 1 |] ~join_introducers:[| 0 |] in
  Alcotest.(check bool) "plain epoch valid" true
    (rs.Core.Churn_network.valid && rs.Core.Churn_network.connected);
  Alcotest.(check bool) "plain costs more rounds" true
    (rs.Core.Churn_network.rounds > rf.Core.Churn_network.rounds);
  Alcotest.(check int) "plain walks never underflow" 0
    rs.Core.Churn_network.sampling_underflows

let qcheck_ids_never_resurrect =
  (* Monotonicity of the model (Section 1.1): once an id leaves V it never
     reappears, and every id enters exactly once. *)
  Testutil.qcheck ~name:"ids enter once and never resurrect" ~count:8
    QCheck.int64
    (fun seed ->
      let s = Prng.Stream.of_seed seed in
      let net = Core.Churn_network.create ~rng:(Prng.Stream.split s) ~n:60 () in
      let departed = Hashtbl.create 64 in
      let ok = ref true in
      for _ = 1 to 4 do
        let before = Core.Churn_network.ids net in
        let plan =
          Core.Churn_adversary.plan Core.Churn_adversary.Random_churn
            ~rng:(Prng.Stream.split s)
            ~graph:(Core.Churn_network.graph net) ~leave_frac:0.3
            ~join_frac:0.3
        in
        ignore
          (Core.Churn_network.epoch net ~leaves:plan.Core.Churn_adversary.leaves
             ~join_introducers:plan.Core.Churn_adversary.join_introducers);
        let after = Core.Churn_network.ids net in
        (* anything present now must not be a previously departed id *)
        Array.iter
          (fun id -> if Hashtbl.mem departed id then ok := false)
          after;
        (* record ids that disappeared this epoch *)
        let still = Hashtbl.create 64 in
        Array.iter (fun id -> Hashtbl.replace still id ()) after;
        Array.iter
          (fun id -> if not (Hashtbl.mem still id) then Hashtbl.replace departed id ())
          before
      done;
      !ok)

(* ---------- Churn adversaries ---------- *)

let test_adversary_plans_within_budget () =
  let s = rng () in
  let graph = Topology.Hgraph.random (Prng.Stream.split s) ~n:200 ~d:8 in
  List.iter
    (fun strat ->
      let plan =
        Core.Churn_adversary.plan strat ~rng:(Prng.Stream.split s) ~graph
          ~leave_frac:0.4 ~join_frac:0.2
      in
      Alcotest.(check int) "leave count" 80
        (Array.length plan.Core.Churn_adversary.leaves);
      Alcotest.(check int) "join count" 40
        (Array.length plan.Core.Churn_adversary.join_introducers);
      (* introducers must be staying members *)
      let leaving = Array.make 200 false in
      Array.iter (fun p -> leaving.(p) <- true) plan.Core.Churn_adversary.leaves;
      Array.iter
        (fun p ->
          Alcotest.(check bool) "introducer stays" false leaving.(p))
        plan.Core.Churn_adversary.join_introducers)
    Core.Churn_adversary.all

let test_adversary_leaves_distinct () =
  let s = rng () in
  let graph = Topology.Hgraph.random (Prng.Stream.split s) ~n:100 ~d:8 in
  List.iter
    (fun strat ->
      let plan =
        Core.Churn_adversary.plan strat ~rng:(Prng.Stream.split s) ~graph
          ~leave_frac:0.5 ~join_frac:0.0
      in
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun p ->
          Alcotest.(check bool) "distinct leaver" false (Hashtbl.mem seen p);
          Hashtbl.add seen p ())
        plan.Core.Churn_adversary.leaves)
    Core.Churn_adversary.all

let test_adversary_segment_contiguous () =
  let s = rng () in
  let graph = Topology.Hgraph.random (Prng.Stream.split s) ~n:100 ~d:8 in
  let plan =
    Core.Churn_adversary.plan Core.Churn_adversary.Segment_leavers
      ~rng:(Prng.Stream.split s) ~graph ~leave_frac:0.2 ~join_frac:0.0
  in
  let l = plan.Core.Churn_adversary.leaves in
  for i = 0 to Array.length l - 2 do
    Alcotest.(check int) "consecutive on cycle 0" l.(i + 1)
      (Topology.Hgraph.succ graph ~cycle:0 l.(i))
  done

let test_adversary_introducer_cap () =
  let s = rng () in
  let graph = Topology.Hgraph.random (Prng.Stream.split s) ~n:100 ~d:8 in
  List.iter
    (fun strat ->
      let plan =
        Core.Churn_adversary.plan ~max_per_introducer:3 strat
          ~rng:(Prng.Stream.split s) ~graph ~leave_frac:0.1 ~join_frac:0.5
      in
      let load = Hashtbl.create 64 in
      Array.iter
        (fun p ->
          Hashtbl.replace load p
            (1 + Option.value ~default:0 (Hashtbl.find_opt load p)))
        plan.Core.Churn_adversary.join_introducers;
      Hashtbl.iter
        (fun _ c -> Alcotest.(check bool) "cap respected" true (c <= 3))
        load)
    Core.Churn_adversary.all

(* ---------- Static baseline (ablation A2) ---------- *)

let test_static_baseline_survives_light_churn () =
  let b = Core.Static_baseline.create ~rng:(rng ()) ~n:200 () in
  Core.Static_baseline.apply b ~leaves:[| 0; 1; 2 |] ~join_introducers:[| 10 |];
  Alcotest.(check int) "alive count" 198 (Core.Static_baseline.alive_count b);
  Alcotest.(check bool) "still connected" true (Core.Static_baseline.is_connected b)

let test_static_baseline_join_then_introducer_dies () =
  let b = Core.Static_baseline.create ~rng:(rng ()) ~n:50 () in
  (* the joiner hangs off node 10 only; kill node 10 *)
  Core.Static_baseline.apply b ~leaves:[||] ~join_introducers:[| 10 |];
  Core.Static_baseline.apply b ~leaves:[| 10 |] ~join_introducers:[||];
  Alcotest.(check bool) "joiner isolated" false
    (Core.Static_baseline.is_connected b);
  Alcotest.(check bool) "most nodes in main component" true
    (Core.Static_baseline.largest_component_fraction b > 0.9)

let test_static_baseline_heavy_churn_fragments () =
  (* Under the same churn volume the reconfigured network handles, the
     static baseline eventually disconnects, w.h.p. *)
  let s = rng () in
  let b = Core.Static_baseline.create ~rng:(Prng.Stream.split s) ~n:400 () in
  let r = Prng.Stream.split s in
  let disconnected = ref false in
  for _ = 1 to 12 do
    if not !disconnected then begin
      let alive = Core.Static_baseline.alive_positions b in
      let kill =
        Array.init
          (Array.length alive * 3 / 10)
          (fun i -> alive.(i * 3 mod Array.length alive))
      in
      let survivors =
        Array.of_list
          (List.filter
             (fun v -> not (Array.mem v kill))
             (Array.to_list alive))
      in
      let joins =
        Array.init (Array.length kill) (fun _ ->
            survivors.(Prng.Stream.int r (Array.length survivors)))
      in
      Core.Static_baseline.apply b ~leaves:kill ~join_introducers:joins;
      if not (Core.Static_baseline.is_connected b) then disconnected := true
    end
  done;
  Alcotest.(check bool) "static baseline fragments" true !disconnected

let test_static_baseline_dead_introducer_rejected () =
  let b = Core.Static_baseline.create ~rng:(rng ()) ~n:20 () in
  Core.Static_baseline.apply b ~leaves:[| 5 |] ~join_introducers:[||];
  Alcotest.check_raises "dead introducer"
    (Invalid_argument "Static_baseline.apply: dead introducer") (fun () ->
      Core.Static_baseline.apply b ~leaves:[||] ~join_introducers:[| 5 |])

(* ---------- properties ---------- *)

let qcheck_reconfig_always_hamiltonian =
  Testutil.qcheck ~name:"reconfigured cycle is always Hamiltonian" ~count:60
    QCheck.(triple int64 (int_range 5 100) (int_range 0 30))
    (fun (seed, n, leavers_raw) ->
      let r = Prng.Stream.of_seed seed in
      let leavers = min leavers_raw (n - 3) in
      let out_label = Array.make n (-1) in
      let next = ref 0 in
      for i = leavers to n - 1 do
        out_label.(i) <- !next;
        incr next
      done;
      let joiner_labels = Array.make n [||] in
      (* a couple of joiners on node n-1 *)
      joiner_labels.(n - 1) <- [| !next; !next + 1 |];
      let m = !next + 2 in
      match
        Core.Reconfig.reconfigure_cycle ~rng:r ~succ:(ring n) ~out_label
          ~joiner_labels
          ~take_sample:(fun _ -> Prng.Stream.int r n)
          ~m ()
      with
      | None -> false
      | Some (new_succ, _) ->
          Array.length new_succ = m
          && Topology.Hgraph.is_hamilton_cycle new_succ)

let qcheck_churn_epoch_preserves_invariants =
  Testutil.qcheck ~name:"churn epochs keep the H-graph valid" ~count:10
    QCheck.(pair int64 (int_range 50 200))
    (fun (seed, n) ->
      let s = Prng.Stream.of_seed seed in
      let net = Core.Churn_network.create ~rng:(Prng.Stream.split s) ~n () in
      let ok = ref true in
      for _ = 1 to 3 do
        let plan =
          Core.Churn_adversary.plan Core.Churn_adversary.Random_churn
            ~rng:(Prng.Stream.split s)
            ~graph:(Core.Churn_network.graph net) ~leave_frac:0.2
            ~join_frac:0.25
        in
        let r =
          Core.Churn_network.epoch net ~leaves:plan.Core.Churn_adversary.leaves
            ~join_introducers:plan.Core.Churn_adversary.join_introducers
        in
        if not (r.Core.Churn_network.valid && r.Core.Churn_network.connected)
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "core-reconfig"
    [
      ( "reconfig",
        [
          Alcotest.test_case "identity population" `Quick
            test_reconfig_identity_population;
          Alcotest.test_case "with leavers" `Quick test_reconfig_with_leavers;
          Alcotest.test_case "with joiners" `Quick test_reconfig_with_joiners;
          Alcotest.test_case "label validation" `Quick
            test_reconfig_label_validation;
          Alcotest.test_case "missing label" `Quick test_reconfig_missing_label;
          Alcotest.test_case "empty population" `Quick test_reconfig_empty;
          Alcotest.test_case "uniform over cycles (Lemma 10)" `Slow
            test_reconfig_uniform_over_cycles;
          Alcotest.test_case "congestion/segment bounds" `Quick
            test_reconfig_stats_bounds;
        ] );
      ( "churn-network",
        [
          Alcotest.test_case "no-churn epoch" `Quick
            test_churn_network_no_churn_epoch;
          Alcotest.test_case "epochs with churn" `Slow
            test_churn_network_epochs_with_churn;
          Alcotest.test_case "ids persist" `Quick test_churn_network_ids_persist;
          Alcotest.test_case "leaver ids gone" `Quick
            test_churn_network_leaver_ids_gone;
          Alcotest.test_case "min size guard" `Quick
            test_churn_network_min_size_guard;
          Alcotest.test_case "rounds grow loglog" `Slow
            test_churn_rounds_loglog_shape;
          Alcotest.test_case "plain-walk sampler (ablation A1)" `Quick
            test_plain_walk_sampler_ablation;
          Alcotest.test_case "delegation chains" `Quick test_delegation_chains;
          Alcotest.test_case "delegation cycle rejected" `Quick
            test_delegation_cycle_rejected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "typed failure on lost replies" `Quick
            test_reconfig_typed_failure_on_lost_replies;
          Alcotest.test_case "retry recovers lost replies" `Quick
            test_reconfig_retry_recovers_lost_replies;
          Alcotest.test_case "no active nodes typed" `Quick
            test_reconfig_no_active_nodes_typed;
          Alcotest.test_case "failed epoch keeps old topology" `Quick
            test_churn_network_fault_epoch_keeps_old_topology;
          Alcotest.test_case "epoch recovers with retry" `Quick
            test_churn_network_fault_epoch_recovers_with_retry;
        ] );
      ( "churn-adversary",
        [
          Alcotest.test_case "budget respected" `Quick
            test_adversary_plans_within_budget;
          Alcotest.test_case "leaves distinct" `Quick
            test_adversary_leaves_distinct;
          Alcotest.test_case "segment contiguous" `Quick
            test_adversary_segment_contiguous;
          Alcotest.test_case "introducer cap" `Quick
            test_adversary_introducer_cap;
        ] );
      ( "static-baseline",
        [
          Alcotest.test_case "light churn ok" `Quick
            test_static_baseline_survives_light_churn;
          Alcotest.test_case "dead introducer isolates joiner" `Quick
            test_static_baseline_join_then_introducer_dies;
          Alcotest.test_case "heavy churn fragments" `Slow
            test_static_baseline_heavy_churn_fragments;
          Alcotest.test_case "dead introducer rejected" `Quick
            test_static_baseline_dead_introducer_rejected;
        ] );
      ( "properties",
        [
          qcheck_reconfig_always_hamiltonian;
          qcheck_churn_epoch_preserves_invariants;
          qcheck_ids_never_resurrect;
        ] );
    ]
