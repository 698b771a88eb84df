(* Corruption generator guarantees: purity in (seed, class, severity),
   advertised-invariant violation, and spec-string round-trips. *)

let violation_kinds ~m succs =
  List.map Simnet.Invariants.kind_of (Simnet.Invariants.check_all ~m succs)

(* A valid family of [k] Hamilton cycles over [m] nodes, each a random
   cyclic order. *)
let cycle_family rng ~k ~m =
  Array.init k (fun _ ->
      let order = Prng.Stream.permutation rng m in
      let succ = Array.make m 0 in
      for i = 0 to m - 1 do
        succ.(order.(i)) <- order.((i + 1) mod m)
      done;
      succ)

let cls_gen = QCheck.Gen.oneofl Simnet.Corruption.all

let spec_gen =
  let open QCheck.Gen in
  let* cls = cls_gen in
  let* severity = float_range 0.01 1.0 in
  let* seed = map Int64.of_int (int_range (-1000000) 1000000) in
  return (Simnet.Corruption.make ~severity ~seed cls)

let family_and_spec_gen =
  let open QCheck.Gen in
  let* spec = spec_gen in
  let* m = int_range 4 96 in
  let* k = int_range 1 3 in
  let* fam_seed = map Int64.of_int (int_range 0 1000000) in
  let rng = Prng.Stream.of_seed fam_seed in
  return (spec, cycle_family rng ~k ~m, m)

let pp_case (spec, succs, m) =
  Printf.sprintf "spec=%s m=%d k=%d"
    (Simnet.Corruption.to_spec spec)
    m (Array.length succs)

let qcheck_pure_function =
  Testutil.qcheck ~name:"apply is a pure function of (seed,class,severity)"
    ~count:200
    (QCheck.make ~print:pp_case family_and_spec_gen)
    (fun (spec, succs, _m) ->
      let a = Simnet.Corruption.apply spec succs in
      let b = Simnet.Corruption.apply spec succs in
      a = b && succs <> a)

let qcheck_advertised_violation =
  Testutil.qcheck
    ~name:"apply violates the advertised invariant of its class" ~count:500
    (QCheck.make ~print:pp_case family_and_spec_gen)
    (fun (spec, succs, m) ->
      let corrupted = Simnet.Corruption.apply spec succs in
      let kinds = violation_kinds ~m corrupted in
      let want = Simnet.Corruption.advertised spec.Simnet.Corruption.cls in
      if not (List.mem want kinds) then
        QCheck.Test.fail_reportf "expected %s among [%s]" want
          (String.concat "; " kinds)
      else true)

let qcheck_spec_roundtrip =
  Testutil.qcheck ~name:"parse_spec (to_spec s) = s" ~count:500
    (QCheck.make
       ~print:(fun s -> Simnet.Corruption.to_spec s)
       spec_gen)
    (fun spec ->
      match Simnet.Corruption.parse_spec (Simnet.Corruption.to_spec spec) with
      | Ok spec' -> spec' = spec
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_input_untouched () =
  let rng = Prng.Stream.of_seed 11L in
  let succs = cycle_family rng ~k:2 ~m:16 in
  let before = Array.map Array.copy succs in
  List.iter
    (fun cls ->
      ignore (Simnet.Corruption.apply (Simnet.Corruption.make cls) succs))
    Simnet.Corruption.all;
  Alcotest.(check bool) "input family unmodified" true (succs = before)

let test_stream_keying () =
  let base = Simnet.Corruption.make ~severity:0.25 ~seed:7L Branch in
  let first t = Prng.Stream.bits64 (Simnet.Corruption.stream t) in
  let b = first base in
  Alcotest.(check bool)
    "seed changes stream" true
    (b <> first { base with seed = 8L });
  Alcotest.(check bool)
    "class changes stream" true
    (b <> first { base with cls = Split });
  Alcotest.(check bool)
    "severity changes stream" true
    (b <> first { base with severity = 0.5 })

let test_parse_errors () =
  let fails s =
    match Simnet.Corruption.parse_spec s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  in
  fails "";
  fails "severity=0.5";
  fails "class=bogus";
  fails "class=branch,severity=0";
  fails "class=branch,severity=1.5";
  fails "class=branch,seed=x";
  fails "class=branch,frob=1";
  fails "branch";
  match Simnet.Corruption.parse_spec "class=stale, severity=0.5 ,seed=-3" with
  | Ok { cls = Stale_pointer; severity = 0.5; seed = -3L } -> ()
  | Ok s -> Alcotest.failf "wrong parse: %s" (Simnet.Corruption.to_spec s)
  | Error e -> Alcotest.failf "parse: %s" e

let test_apply_rejects_bad_input () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let spec = Simnet.Corruption.make Branch in
  raises (fun () -> Simnet.Corruption.apply spec [||]);
  raises (fun () -> Simnet.Corruption.apply spec [| [| 1; 2; 0 |] |]);
  raises (fun () ->
      Simnet.Corruption.apply spec [| [| 1; 0; 3; 2 |] |] (* two 2-cycles *));
  raises (fun () ->
      Simnet.Corruption.apply spec [| [| 1; 2; 3; 0 |]; [| 1; 2; 0 |] |])

let test_severity_scales () =
  let rng = Prng.Stream.of_seed 3L in
  let succs = cycle_family rng ~k:1 ~m:64 in
  let broken severity =
    let spec = Simnet.Corruption.make ~severity ~seed:5L Out_of_range in
    let out = Simnet.Corruption.apply spec succs in
    Array.fold_left
      (fun acc s -> if s < 0 || s >= 64 then acc + 1 else acc)
      0 out.(0)
  in
  Alcotest.(check int) "severity 1/64 breaks one pointer" 1 (broken 0.015);
  Alcotest.(check int) "severity 0.5 breaks half" 32 (broken 0.5);
  Alcotest.(check int) "severity 1.0 capped at m-2" 62 (broken 1.0)

let () =
  Alcotest.run "simnet_corruption"
    [
      ( "unit",
        [
          Alcotest.test_case "input untouched" `Quick test_input_untouched;
          Alcotest.test_case "stream keying" `Quick test_stream_keying;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "apply rejects bad input" `Quick
            test_apply_rejects_bad_input;
          Alcotest.test_case "severity scales damage" `Quick
            test_severity_scales;
        ] );
      ( "properties",
        [
          qcheck_pure_function;
          qcheck_advertised_violation;
          qcheck_spec_roundtrip;
        ] );
    ]
