(* Tests for the k-ary generalization of the rapid sampling primitive
   (Section 7.2's "straightforward extension" of Algorithm 2). *)

let rng () = Testutil.rng ()

let test_rounds () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
  let r = Core.Rapid_kary.run ~rng:(rng ()) cube in
  Alcotest.(check int) "2 ceil(log2 d) rounds" 4 r.Core.Sampling_result.rounds;
  Alcotest.(check int) "walk length d" 4 r.Core.Sampling_result.walk_length

let test_uniform () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
  let n = Topology.Kary_hypercube.node_count cube in
  let counts = Array.make n 0 in
  List.iter
    (fun seed ->
      let r = Core.Rapid_kary.run ~rng:(Prng.Stream.of_seed seed) cube in
      Array.iter
        (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
        r.Core.Sampling_result.samples)
    [ 1L; 2L; 3L ];
  Alcotest.(check bool) "uniform over k^d nodes" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_uniform_odd_arity_odd_dim () =
  (* k = 3 and d = 5 (not a power of two): the left-leaning segment tree
     and non-binary digits together. *)
  let cube = Topology.Kary_hypercube.create ~k:3 ~d:5 in
  let n = Topology.Kary_hypercube.node_count cube in
  let counts = Array.make n 0 in
  List.iter
    (fun seed ->
      let r =
        Core.Rapid_kary.run ~c:3.0 ~rng:(Prng.Stream.of_seed seed) cube
      in
      Array.iter
        (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
        r.Core.Sampling_result.samples)
    [ 4L; 5L; 6L ];
  Alcotest.(check bool) "uniform for k=3, d=5" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_samples_in_range () =
  let cube = Topology.Kary_hypercube.create ~k:5 ~d:3 in
  let n = Topology.Kary_hypercube.node_count cube in
  let r = Core.Rapid_kary.run ~rng:(rng ()) cube in
  Array.iter
    (Array.iter (fun s ->
         Alcotest.(check bool) "in range" true (s >= 0 && s < n)))
    r.Core.Sampling_result.samples

let test_plain_baseline () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
  let n = Topology.Kary_hypercube.node_count cube in
  let p = Core.Rapid_kary.run_plain ~k:10 ~rng:(rng ()) cube in
  Alcotest.(check int) "d + 1 rounds" 5 p.Core.Sampling_result.rounds;
  let counts = Array.make n 0 in
  Array.iter
    (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
    p.Core.Sampling_result.samples;
  Alcotest.(check bool) "token walk uniform" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_separation () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:6 in
  let fast = Core.Rapid_kary.run ~rng:(rng ()) cube in
  let slow = Core.Rapid_kary.run_plain ~k:2 ~rng:(rng ()) cube in
  Alcotest.(check bool) "fewer rounds" true
    (fast.Core.Sampling_result.rounds < slow.Core.Sampling_result.rounds)

let test_run_allocation () =
  (* The flat core allocates its arena and queues once (on the major heap)
     and nothing per draw or message.  The multiset-per-bucket
     implementation it replaced allocated 129,421,124 minor words on this
     run; allow under 5 % of that. *)
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:6 in
  let rng = Prng.Stream.of_seed 1L in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Core.Rapid_kary.run ~rng cube));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < 6471056" words)
    true (words < 0.05 *. 129_421_124.)

let test_dht_reshuffle_balanced () =
  (* Robust_dht.reshuffle now scatters via the k-ary primitive; the new
     group sizes must look binomial, not clumped. *)
  let s = rng () in
  let dht = Apps.Robust_dht.create ~k:4 ~rng:(Prng.Stream.split s) ~n:4096 () in
  Apps.Robust_dht.reshuffle dht;
  let sup = Apps.Robust_dht.supernode_count dht in
  let sizes = Array.make sup 0 in
  Array.iter
    (fun g -> sizes.(g) <- sizes.(g) + 1)
    (Apps.Robust_dht.group_of dht);
  let mean = 4096.0 /. float_of_int sup in
  let var =
    Array.fold_left (fun a c -> a +. ((float_of_int c -. mean) ** 2.0)) 0.0 sizes
    /. float_of_int sup
  in
  Alcotest.(check bool)
    (Printf.sprintf "variance %.1f within 2.5x of mean %.1f" var mean)
    true
    (var < 2.5 *. mean);
  Alcotest.(check int) "nobody unassigned" 4096 (Array.fold_left ( + ) 0 sizes)

let qcheck_kary_uniform_marginals =
  Testutil.qcheck ~name:"k-ary samples stay in range for random (k, d)"
    ~count:20
    QCheck.(triple int64 (int_range 2 5) (int_range 2 5))
    (fun (seed, k, d) ->
      let cube = Topology.Kary_hypercube.create ~k ~d in
      let n = Topology.Kary_hypercube.node_count cube in
      let r = Core.Rapid_kary.run ~c:1.0 ~rng:(Prng.Stream.of_seed seed) cube in
      Array.for_all
        (Array.for_all (fun v -> v >= 0 && v < n))
        r.Core.Sampling_result.samples)

let () =
  Alcotest.run "core-kary"
    [
      ( "rapid-kary",
        [
          Alcotest.test_case "rounds" `Quick test_rounds;
          Alcotest.test_case "uniform" `Slow test_uniform;
          Alcotest.test_case "odd arity and dim" `Slow
            test_uniform_odd_arity_odd_dim;
          Alcotest.test_case "samples in range" `Quick test_samples_in_range;
          Alcotest.test_case "plain baseline" `Quick test_plain_baseline;
          Alcotest.test_case "round separation" `Quick test_separation;
          Alcotest.test_case "run allocation" `Quick test_run_allocation;
          Alcotest.test_case "dht reshuffle balanced" `Quick
            test_dht_reshuffle_balanced;
        ] );
      ("properties", [ qcheck_kary_uniform_marginals ]);
    ]
