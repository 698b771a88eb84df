(* Tests for the PRNG substrate: determinism, splitting, distribution
   sanity, and the exactness properties the samplers rely on. *)

let stream () = Prng.Stream.of_seed 12345L

let test_splitmix_deterministic () =
  let a = Prng.Splitmix64.create 99L and b = Prng.Splitmix64.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix64.next a)
      (Prng.Splitmix64.next b)
  done

let test_splitmix_mix_bijective_sample () =
  (* mix is a bijection; distinct inputs give distinct outputs (spot check
     over a contiguous range). *)
  let seen = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    let v = Prng.Splitmix64.mix (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let test_xoshiro_known_nonzero () =
  let g = Prng.Xoshiro256.of_seed 0L in
  let all_zero = ref true in
  for _ = 1 to 10 do
    if Prng.Xoshiro256.next g <> 0L then all_zero := false
  done;
  Alcotest.(check bool) "produces non-zero output" false !all_zero

let test_xoshiro_copy_independent () =
  let g = Prng.Xoshiro256.of_seed 7L in
  ignore (Prng.Xoshiro256.next g);
  let h = Prng.Xoshiro256.copy g in
  let a = Prng.Xoshiro256.next g in
  let b = Prng.Xoshiro256.next h in
  Alcotest.(check int64) "copy continues identically" a b;
  (* advancing one must not affect the other *)
  ignore (Prng.Xoshiro256.next g);
  let c = Prng.Xoshiro256.next g and d = Prng.Xoshiro256.next h in
  Alcotest.(check bool) "streams diverge after different consumption" true
    (c <> d || a <> b)

let test_xoshiro_jump_changes_stream () =
  let g = Prng.Xoshiro256.of_seed 7L in
  let h = Prng.Xoshiro256.copy g in
  Prng.Xoshiro256.jump h;
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Xoshiro256.next g = Prng.Xoshiro256.next h then incr same
  done;
  Alcotest.(check bool) "jumped stream differs" true (!same < 4)

let test_xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro256.of_state 0L 0L 0L 0L))

(* Known answers.  The of_state 1 2 3 4 outputs are the reference
   xoshiro256** sequence of Blackman and Vigna; the rest pin this
   implementation's seeding, rejection and bit-slicing rules, so a change of
   the generator's representation must reproduce every stream exactly. *)

let int64s g n = List.init n (fun _ -> Prng.Xoshiro256.next g)

let test_xoshiro_reference () =
  Alcotest.(check (list int64)) "of_state 1 2 3 4"
    [ 11520L; 0L; 1509978240L; 1215971899390074240L; 1216172134540287360L;
      607988272756665600L ]
    (int64s (Prng.Xoshiro256.of_state 1L 2L 3L 4L) 6);
  Alcotest.(check (list int64)) "of_seed 7"
    [ -5523389002881075622L; 5142052590334782674L; -2958351167216911978L;
      -348685429060373952L ]
    (int64s (Prng.Xoshiro256.of_seed 7L) 4)

let test_xoshiro_copy_jump_known () =
  let g = Prng.Xoshiro256.of_seed 7L in
  ignore (int64s g 2);
  let h = Prng.Xoshiro256.copy g in
  ignore (Prng.Xoshiro256.next g);
  Alcotest.(check (list int64)) "copy resumes at draw 3"
    [ -2958351167216911978L; -348685429060373952L; -168598097271454952L ]
    (int64s h 3);
  let j = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  Prng.Xoshiro256.jump j;
  Alcotest.(check (list int64)) "jump from 1 2 3 4"
    [ -4912596984176294952L; 7126240192422241655L; 3805973808039778091L;
      -6898863543051131232L ]
    (int64s j 4)

let test_stream_known () =
  let s = stream () in
  Alcotest.(check (list int)) "int 1000"
    [ 741; 499; 628; 697; 172; 698; 404; 855 ]
    (List.init 8 (fun _ -> Prng.Stream.int s 1000));
  let s = stream () in
  Alcotest.(check (list bool)) "bool"
    [ true; false; false; true; false; false; true; false; false; true; false;
      false; true; true; true; true ]
    (List.init 16 (fun _ -> Prng.Stream.bool s));
  let s = stream () in
  Alcotest.(check (list string)) "float 1.0"
    [ "0x1.7cd46c6e82c1ap-1"; "0x1.0a555031bd344p-3"; "0x1.ed3a2dbd32a9ap-1";
      "0x1.8c009189d2dcp-5" ]
    (List.init 4 (fun _ -> Printf.sprintf "%h" (Prng.Stream.float s 1.0)));
  let s = stream () in
  Alcotest.(check (list string)) "int, int_in, bernoulli interleaved"
    [ "1"; "3"; "false"; "5"; "-2"; "true" ]
    (List.init 6 (fun i ->
         match i mod 3 with
         | 0 -> string_of_int (Prng.Stream.int s 6)
         | 1 -> string_of_int (Prng.Stream.int_in s (-3) 3)
         | _ -> string_of_bool (Prng.Stream.bernoulli s 0.3)));
  let s = stream () in
  let c = Prng.Stream.split s in
  Alcotest.(check (list int)) "split child" [ 449; 658; 481; 245 ]
    (List.init 4 (fun _ -> Prng.Stream.int c 1000));
  Alcotest.(check (list int64)) "parent bits64 after split"
    [ -4725905248023948133L; 2398916695208396998L ]
    (List.init 2 (fun _ -> Prng.Stream.bits64 s))

let test_stream_rejection_known () =
  (* A bound of 2^61 + 1 rejects about a quarter of the 63-bit draws: the
     six values below consume seven generator outputs. *)
  let s = stream () in
  Alcotest.(check (list int)) "int (2^61 + 1)"
    [ 2248733394415413835; 1199458347604198499; 445858863439900697;
      508972004731839266; 98487714942453698; 1473685501948099404 ]
    (List.init 6 (fun _ -> Prng.Stream.int s ((1 lsl 61) + 1)));
  let fresh = stream () in
  for _ = 1 to 7 do ignore (Prng.Stream.bits64 fresh) done;
  Alcotest.(check int64) "seven outputs consumed" (Prng.Stream.bits64 fresh)
    (Prng.Stream.bits64 s)

let test_draws_allocate_nothing () =
  (* Drawing must not box the generator state or the 64-bit output (the
     record-of-int64 state cost 29 words per int and 21 per bool). *)
  let s = stream () in
  let words_per_draw draw =
    let before = Gc.minor_words () in
    for _ = 1 to 100_000 do
      ignore (Sys.opaque_identity (draw s))
    done;
    (Gc.minor_words () -. before) /. 100_000.
  in
  let int_words = words_per_draw (fun s -> Prng.Stream.int s 1000) in
  let bool_words = words_per_draw Prng.Stream.bool in
  Alcotest.(check bool)
    (Printf.sprintf "int: %.3f words per draw < 0.01" int_words)
    true (int_words < 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "bool: %.3f words per draw < 0.01" bool_words)
    true (bool_words < 0.01)

let test_stream_determinism () =
  let a = stream () and b = stream () in
  for _ = 1 to 200 do
    Alcotest.(check int) "same ints" (Prng.Stream.int a 1000)
      (Prng.Stream.int b 1000)
  done

let test_split_independence () =
  (* children from successive splits must differ from each other and from
     the parent stream *)
  let s = stream () in
  let c1 = Prng.Stream.split s and c2 = Prng.Stream.split s in
  let seq st = Array.init 32 (fun _ -> Prng.Stream.bits64 st) in
  let s1 = seq c1 and s2 = seq c2 and s0 = seq s in
  Alcotest.(check bool) "children differ" true (s1 <> s2);
  Alcotest.(check bool) "child differs from parent" true (s1 <> s0 && s2 <> s0)

let test_split_n () =
  let s = stream () in
  let kids = Prng.Stream.split_n s 5 in
  Alcotest.(check int) "five children" 5 (Array.length kids);
  let firsts = Array.map Prng.Stream.bits64 kids in
  let distinct = Hashtbl.create 8 in
  Array.iter (fun v -> Hashtbl.replace distinct v ()) firsts;
  Alcotest.(check int) "distinct first outputs" 5 (Hashtbl.length distinct)

let test_int_bounds () =
  let s = stream () in
  for _ = 1 to 10000 do
    let v = Prng.Stream.int s 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Stream.int: bound <= 0")
    (fun () -> ignore (Prng.Stream.int s 0))

let test_int_uniform_chi2 () =
  let s = stream () in
  let counts = Array.make 10 0 in
  for _ = 1 to 100_000 do
    let v = Prng.Stream.int s 10 in
    counts.(v) <- counts.(v) + 1
  done;
  let p = Stats.Chi_square.test_uniform counts in
  Alcotest.(check bool) "uniform (p > 0.001)" true (p > 0.001)

let test_int_in () =
  let s = stream () in
  for _ = 1 to 1000 do
    let v = Prng.Stream.int_in s (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_float_range () =
  let s = stream () in
  for _ = 1 to 1000 do
    let v = Prng.Stream.float s 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_extremes () =
  let s = stream () in
  Alcotest.(check bool) "p=0 never" false (Prng.Stream.bernoulli s 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.Stream.bernoulli s 1.0)

let test_bernoulli_rate () =
  let s = stream () in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.Stream.bernoulli s 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 100_000.0 in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

let test_permutation_valid () =
  let s = stream () in
  let p = Prng.Stream.permutation s 100 in
  let seen = Array.make 100 false in
  Array.iter (fun v -> seen.(v) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_permutation_uniform () =
  (* All 6 permutations of 3 elements appear with equal frequency. *)
  let s = stream () in
  let counts = Hashtbl.create 6 in
  for _ = 1 to 60_000 do
    let p = Prng.Stream.permutation s 3 in
    let key = (100 * p.(0)) + (10 * p.(1)) + p.(2) in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "all 6 permutations occur" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "balanced" true (abs (c - 10_000) < 600))
    counts

let test_sample_distinct () =
  let s = stream () in
  for _ = 1 to 100 do
    let a = Prng.Stream.sample_distinct s 50 ~k:10 in
    Alcotest.(check int) "k elements" 10 (Array.length a);
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        Alcotest.(check bool) "in range" true (v >= 0 && v < 50);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem seen v);
        Hashtbl.add seen v ())
      a
  done;
  (* dense path *)
  let full = Prng.Stream.sample_distinct s 10 ~k:10 in
  let seen = Array.make 10 false in
  Array.iter (fun v -> seen.(v) <- true) full;
  Alcotest.(check bool) "k = n is a permutation" true (Array.for_all Fun.id seen);
  Alcotest.check_raises "k > n" (Invalid_argument "Stream.sample_distinct")
    (fun () -> ignore (Prng.Stream.sample_distinct s 3 ~k:4))

let test_choose () =
  let s = stream () in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "element of array" true
      (Array.mem (Prng.Stream.choose s a) a)
  done

let test_dist_geometric () =
  let s = stream () in
  Alcotest.(check int) "p=1 is 0" 0 (Prng.Dist.geometric s 1.0);
  let acc = ref 0.0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    acc := !acc +. float_of_int (Prng.Dist.geometric s 0.25)
  done;
  let mean = !acc /. float_of_int trials in
  (* E = (1-p)/p = 3 *)
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.15)

let test_dist_binomial () =
  let s = stream () in
  Alcotest.(check int) "p=0" 0 (Prng.Dist.binomial s ~n:100 ~p:0.0);
  Alcotest.(check int) "p=1" 100 (Prng.Dist.binomial s ~n:100 ~p:1.0);
  let acc = ref 0 in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.Dist.binomial s ~n:20 ~p:0.5
  done;
  let mean = float_of_int !acc /. 10_000.0 in
  Alcotest.(check bool) "mean near 10" true (abs_float (mean -. 10.0) < 0.2)

let test_dist_poisson () =
  let s = stream () in
  let acc = ref 0 in
  for _ = 1 to 20_000 do
    acc := !acc + Prng.Dist.poisson s 4.0
  done;
  let mean = float_of_int !acc /. 20_000.0 in
  Alcotest.(check bool) "mean near 4" true (abs_float (mean -. 4.0) < 0.15)

let test_dist_zipf () =
  let s = stream () in
  let counts = Array.make 11 0 in
  for _ = 1 to 50_000 do
    let r = Prng.Dist.zipf s ~n:10 ~s:1.0 in
    Alcotest.(check bool) "rank in [1,10]" true (r >= 1 && r <= 10);
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true
    (counts.(1) > counts.(2) && counts.(2) > counts.(5))

let test_dist_categorical () =
  let s = stream () in
  let w = [| 0.0; 3.0; 1.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Prng.Dist.categorical s w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight cell empty" 0 counts.(0);
  let ratio = float_of_int counts.(1) /. float_of_int counts.(2) in
  Alcotest.(check bool) "3:1 ratio" true (abs_float (ratio -. 3.0) < 0.3)

(* ---------- statistical quality of the raw generator ---------- *)

let test_monobit () =
  (* NIST-style frequency test: the number of set bits in 10^6 output bits
     should be within ~4 sigma of half. *)
  let g = Prng.Xoshiro256.of_seed 0xB17L in
  let words = 15_625 (* x 64 bits = 1e6 bits *) in
  let ones = ref 0 in
  for _ = 1 to words do
    let x = ref (Prng.Xoshiro256.next g) in
    while !x <> 0L do
      if Int64.logand !x 1L = 1L then incr ones;
      x := Int64.shift_right_logical !x 1
    done
  done;
  let n = words * 64 in
  let dev =
    abs_float (float_of_int !ones -. (float_of_int n /. 2.0))
    /. sqrt (float_of_int n /. 4.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "monobit deviation %.2f sigma" dev)
    true (dev < 4.0)

let test_runs () =
  (* Runs test on the low bit: the count of 01/10 transitions should be
     near half the sequence length. *)
  let g = Prng.Xoshiro256.of_seed 0x12345L in
  let n = 200_000 in
  let prev = ref (Int64.logand (Prng.Xoshiro256.next g) 1L) in
  let transitions = ref 0 in
  for _ = 2 to n do
    let b = Int64.logand (Prng.Xoshiro256.next g) 1L in
    if b <> !prev then incr transitions;
    prev := b
  done;
  let expected = float_of_int (n - 1) /. 2.0 in
  let dev =
    abs_float (float_of_int !transitions -. expected)
    /. sqrt (float_of_int (n - 1) /. 4.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "runs deviation %.2f sigma" dev)
    true (dev < 4.0)

let test_serial_correlation () =
  (* Lag-1 correlation of consecutive outputs mapped to [0,1). *)
  let s = Prng.Stream.of_seed 0x5E1AL in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Prng.Stream.float s 1.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 2 do
    num := !num +. ((xs.(i) -. mean) *. (xs.(i + 1) -. mean))
  done;
  Array.iter (fun x -> den := !den +. ((x -. mean) ** 2.0)) xs;
  let rho = !num /. !den in
  Alcotest.(check bool)
    (Printf.sprintf "lag-1 correlation %.4f" rho)
    true
    (abs_float rho < 0.02)

let test_split_streams_uncorrelated () =
  (* Sibling streams must not track each other: correlate their outputs. *)
  let parent = Prng.Stream.of_seed 0xFA111L in
  let a = Prng.Stream.split parent and b = Prng.Stream.split parent in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.Stream.float a 1.0) in
  let ys = Array.init n (fun _ -> Prng.Stream.float b 1.0) in
  let mx = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let my = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  for i = 0 to n - 1 do
    num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    dx := !dx +. ((xs.(i) -. mx) ** 2.0);
    dy := !dy +. ((ys.(i) -. my) ** 2.0)
  done;
  let rho = !num /. sqrt (!dx *. !dy) in
  Alcotest.(check bool)
    (Printf.sprintf "sibling correlation %.4f" rho)
    true
    (abs_float rho < 0.02)

let qcheck_int_in_range =
  Testutil.qcheck ~name:"Stream.int always in [0, bound)" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let s = Prng.Stream.of_seed seed in
      let v = Prng.Stream.int s bound in
      v >= 0 && v < bound)

let qcheck_permutation_is_bijection =
  Testutil.qcheck ~name:"permutation is a bijection" ~count:200
    QCheck.(pair int64 (int_range 1 200))
    (fun (seed, n) ->
      let s = Prng.Stream.of_seed seed in
      let p = Prng.Stream.permutation s n in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) p;
      Array.for_all Fun.id seen)

let qcheck_shuffle_preserves_multiset =
  Testutil.qcheck ~name:"shuffle preserves the multiset" ~count:200
    QCheck.(pair int64 (list small_int))
    (fun (seed, l) ->
      let s = Prng.Stream.of_seed seed in
      let a = Array.of_list l in
      let b = Array.copy a in
      Prng.Stream.shuffle_in_place s b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

let qcheck_sample_distinct_distinct =
  Testutil.qcheck ~name:"sample_distinct yields distinct in-range values"
    ~count:300
    QCheck.(triple int64 (int_range 1 500) (int_range 0 100))
    (fun (seed, n, kraw) ->
      let k = min kraw n in
      let s = Prng.Stream.of_seed seed in
      let a = Prng.Stream.sample_distinct s n ~k in
      let seen = Hashtbl.create 16 in
      Array.for_all
        (fun v ->
          let fresh = not (Hashtbl.mem seen v) in
          Hashtbl.add seen v ();
          fresh && v >= 0 && v < n)
        a)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "mix collision-free sample" `Quick
            test_splitmix_mix_bijective_sample;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "nonzero output" `Quick test_xoshiro_known_nonzero;
          Alcotest.test_case "copy independence" `Quick
            test_xoshiro_copy_independent;
          Alcotest.test_case "jump changes stream" `Quick
            test_xoshiro_jump_changes_stream;
          Alcotest.test_case "zero state rejected" `Quick
            test_xoshiro_zero_state_rejected;
          Alcotest.test_case "reference outputs" `Quick test_xoshiro_reference;
          Alcotest.test_case "copy and jump known answers" `Quick
            test_xoshiro_copy_jump_known;
        ] );
      ( "stream",
        [
          Alcotest.test_case "determinism" `Quick test_stream_determinism;
          Alcotest.test_case "known answers" `Quick test_stream_known;
          Alcotest.test_case "rejection known answers" `Quick
            test_stream_rejection_known;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "split_n" `Quick test_split_n;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_int_uniform_chi2;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "permutation valid" `Quick test_permutation_valid;
          Alcotest.test_case "permutation uniform" `Slow test_permutation_uniform;
          Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
          Alcotest.test_case "choose" `Quick test_choose;
        ] );
      ( "dist",
        [
          Alcotest.test_case "geometric" `Slow test_dist_geometric;
          Alcotest.test_case "binomial" `Slow test_dist_binomial;
          Alcotest.test_case "poisson" `Slow test_dist_poisson;
          Alcotest.test_case "zipf" `Slow test_dist_zipf;
          Alcotest.test_case "categorical" `Slow test_dist_categorical;
        ] );
      ( "quality",
        [
          Alcotest.test_case "monobit frequency" `Slow test_monobit;
          Alcotest.test_case "runs" `Slow test_runs;
          Alcotest.test_case "serial correlation" `Slow test_serial_correlation;
          Alcotest.test_case "split streams uncorrelated" `Slow
            test_split_streams_uncorrelated;
        ] );
      ( "properties",
        [
          qcheck_int_in_range;
          qcheck_permutation_is_bijection;
          qcheck_shuffle_preserves_multiset;
          qcheck_sample_distinct_distinct;
        ] );
    ]
