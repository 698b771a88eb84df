(* Output pins for the rapid samplers (Algorithm 2 on the binary and k-ary
   cubes, its plain token walks, and the weighted virtual-cube sampler).
   Each pin is a digest of a whole result: every sample in order plus the
   underflow, round and bit counters, and for traced runs the md5 of the
   emitted JSONL events.  The values were generated before the samplers
   moved onto one flat core; any representation change must reproduce
   them, since they fix every PRNG draw and every metered message. *)

module Sr = Core.Sampling_result
module Sm = Core.Split_merge

let md5 s = Digest.to_hex (Digest.string s)

let rows_digest rows =
  let b = Buffer.create 4096 in
  Array.iter
    (fun row ->
      Array.iter (fun v -> Printf.bprintf b "%d " v) row;
      Buffer.add_char b '\n')
    rows;
  md5 (Buffer.contents b)

let result_digest (r : Sr.t) =
  Printf.sprintf
    "samples=%s underflows=%d rounds=%d total_bits=%d max_round_node_bits=%d \
     retries=%d escalations=%d walk=%d schedule=%s"
    (rows_digest r.Sr.samples) r.Sr.underflows r.Sr.rounds r.Sr.total_bits
    r.Sr.max_round_node_bits r.Sr.retries r.Sr.escalations r.Sr.walk_length
    (String.concat "," (Array.to_list (Array.map string_of_int r.Sr.schedule)))

(* A trace sink collecting the JSONL lines; returns the sink and a thunk
   giving "<events> <md5>" of what it saw. *)
let recording_trace () =
  let b = Buffer.create 4096 and events = ref 0 in
  let trace =
    Simnet.Trace.make ~close:ignore ~emit:(fun e ->
        incr events;
        Buffer.add_string b (Simnet.Trace.jsonl_of_event e);
        Buffer.add_char b '\n')
  in
  (trace, fun () -> Printf.sprintf "%d %s" !events (md5 (Buffer.contents b)))

let rng seed = Prng.Stream.of_seed seed
let kary ~k ~d = Topology.Kary_hypercube.create ~k ~d

let pin name expected actual () =
  Alcotest.(check string) name expected (actual ())

let kary_pins =
  [
    ( "kary run k=4 d=6",
      "samples=96d7a4479836a0e7841731c9ea334020 underflows=12 \
       rounds=6 total_bits=112753944 max_round_node_bits=11532 \
       retries=0 escalations=0 walk=6 schedule=81,54,36,24",
      fun () -> result_digest (Core.Rapid_kary.run ~rng:(rng 1L) (kary ~k:4 ~d:6)) );
    ( "kary run k=3 d=5",
      "samples=c24dd2ce8b7c3bd476e0c4217c933620 underflows=1 \
       rounds=6 total_bits=2939274 max_round_node_bits=4428 \
       retries=0 escalations=0 walk=5 schedule=54,36,24,16",
      fun () -> result_digest (Core.Rapid_kary.run ~rng:(rng 2L) (kary ~k:3 ~d:5)) );
    ( "kary run k=3 d=5 underflowing",
      "samples=17760020c7dd97219aba0991ffe41670 underflows=77 \
       rounds=6 total_bits=494100 max_round_node_bits=864 \
       retries=0 escalations=0 walk=5 schedule=9,6,4,3",
      fun () ->
        result_digest
          (Core.Rapid_kary.run ~c:0.3 ~rng:(rng 3L) (kary ~k:3 ~d:5)) );
    ( "kary run_plain k=4 d=6",
      "samples=96bc56a27865c1383ff23124f4ac4bec underflows=0 \
       rounds=7 total_bits=3787280 max_round_node_bits=420 \
       retries=0 escalations=0 walk=6 schedule=3",
      fun () ->
        result_digest
          (Core.Rapid_kary.run_plain ~k:3 ~rng:(rng 4L) (kary ~k:4 ~d:6)) );
  ]

let hypercube_pins =
  let cube d = Topology.Hypercube.create d in
  [
    ( "hypercube run d=6",
      "samples=9712686f5a96cf84258fb3aad744c316 underflows=0 \
       rounds=6 total_bits=710400 max_round_node_bits=4350 \
       retries=0 escalations=0 walk=6 schedule=41,27,18,12",
      fun () -> result_digest (Core.Rapid_hypercube.run ~rng:(rng 5L) (cube 6)) );
    ( "hypercube run d=7",
      "samples=d2fbff7334067c50f35555c4d5cd54ea underflows=7 \
       rounds=6 total_bits=2023060 max_round_node_bits=5642 \
       retries=0 escalations=0 walk=7 schedule=48,32,21,14",
      fun () -> result_digest (Core.Rapid_hypercube.run ~rng:(rng 6L) (cube 7)) );
    ( "hypercube run d=7 underflowing",
      "samples=7c5029c32df349a90609a622d160aba9 underflows=88 \
       rounds=6 total_bits=341016 max_round_node_bits=962 \
       retries=0 escalations=0 walk=7 schedule=8,5,4,3",
      fun () ->
        result_digest (Core.Rapid_hypercube.run ~c:0.3 ~rng:(rng 7L) (cube 7)) );
    ( "hypercube run d=6 retried, traced",
      "samples=0f6d81e30deff149c76c9190f1d4f91d underflows=4 \
       rounds=6 total_bits=377400 max_round_node_bits=2350 \
       retries=3 escalations=3 walk=6 schedule=21,14,10,7 \
       trace=27 c605bf5a1c7006b2178de81f4b432a82",
      fun () ->
        let trace, events = recording_trace () in
        let r =
          Core.Rapid_hypercube.run ~c:0.3 ~trace ~retry:Core.Retry.default
            ~rng:(rng 8L) (cube 6)
        in
        result_digest r ^ " trace=" ^ events () );
    ( "hypercube run_plain d=7 traced",
      "samples=fab9df2f85ea52b6bd11984348725690 underflows=0 \
       rounds=8 total_bits=79810 max_round_node_bits=253 \
       retries=0 escalations=0 walk=7 schedule=3 trace=8 \
       e61754268290f5ed2734204e668a83ed",
      fun () ->
        let trace, events = recording_trace () in
        let r = Core.Rapid_hypercube.run_plain ~trace ~k:3 ~rng:(rng 9L) (cube 7) in
        result_digest r ^ " trace=" ^ events () );
  ]

(* A caterpillar split tree: one leaf at each dimension 1..6 and two at 7,
   so leaf weights range from 1/2 down to 1/128. *)
let uneven_tree () =
  let t = Sm.create () in
  for dim = 1 to 6 do
    Sm.add_leaf t { Sm.bits = (1 lsl (dim - 1)) - 1; dim } ()
  done;
  Sm.add_leaf t { Sm.bits = 0b0111111; dim = 7 } ();
  Sm.add_leaf t { Sm.bits = 0b1111111; dim = 7 } ();
  t

let weighted_pins =
  [
    ( "weighted run on an uneven tree",
      "pools=bfa8d54a378e3986c1a91c67dadb978e leaves=8 \
       virtual_dim=7 rounds=6 underflows=11",
      fun () ->
        let r = Core.Rapid_weighted.run ~rng:(rng 10L) (uneven_tree ()) in
        Printf.sprintf "pools=%s leaves=%d virtual_dim=%d rounds=%d underflows=%d"
          (rows_digest r.Core.Rapid_weighted.pools)
          (Array.length r.Core.Rapid_weighted.leaves)
          r.Core.Rapid_weighted.virtual_dim r.Core.Rapid_weighted.rounds
          r.Core.Rapid_weighted.underflows );
  ]

let cases pins =
  List.map
    (fun (name, expected, actual) ->
      Alcotest.test_case name `Quick (pin name expected actual))
    pins

let () =
  Alcotest.run "sampler_pins"
    [
      ("kary", cases kary_pins);
      ("hypercube", cases hypercube_pins);
      ("weighted", cases weighted_pins);
    ]
