(* Engine scaling curve: throughput of Simnet.Engine's round core.

   Every point runs the path protocols use — metered
   [Simnet.Engine.deliver_and_step] with list inboxes, as in Group_sim
   and Rapid_hgraph.run_on_engine — on a fixed fan-out workload with no
   PRNG in the hot loop, and writes BENCH_engine.json with messages/sec
   and the engine's resident heap per node (live words after a major GC,
   minus the pre-creation baseline: the steady-state footprint of the
   grown-once planes and the metrics arrays).

   Two guards keep the numbers honest: every point runs the same total
   message budget (never fewer than 4 timed rounds, so large-n points are
   not a single noisy round), and one untimed warm-up round grows every
   plane to steady state before the clock starts.  Each point is timed
   [reps] times; the JSON carries the median with the min and max, and
   the delivered-payload checksum must agree across the repetitions. *)

let scenario =
  match Simnet.Scenario.parse "seed=7" with
  | Ok sc -> sc
  | Error e -> failwith e

let msg_bits _ = 32
let curve_ns = [ 4096; 16384; 65536; 262144 ]
let fanout = 8
let budget = 4 * 1024 * 1024
let reps = 3
let rounds_for cn = max 4 (budget / (cn * fanout))

(* One timed run at [cn]: (msgs/sec, resident bytes/node, checksum). *)
let run_once cn =
  let rounds = rounds_for cn in
  (* Fixed fan-out offsets: node [me] sends to [(me + offsets.(j)) mod cn]
     every round. *)
  let offsets =
    let rng = Simnet.Scenario.rng scenario in
    Array.init fanout (fun _ -> 1 + Prng.Stream.int rng (cn - 1))
  in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let eng = Simnet.Engine.create ~n:cn ~msg_bits () in
  let sum = ref 0 in
  let step () =
    Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me ~inbox ->
        List.iter (fun (_, msg) -> sum := !sum + msg) inbox;
        for j = 0 to fanout - 1 do
          Simnet.Engine.send eng ~src:me ~dst:((me + offsets.(j)) mod cn) me
        done)
  in
  step ();
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  let resident_per_node =
    float_of_int ((live - live0) * (Sys.word_size / 8)) /. float_of_int cn
  in
  let wall0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    step ()
  done;
  let wall = Unix.gettimeofday () -. wall0 in
  (float_of_int (cn * fanout * rounds) /. wall, resident_per_node, !sum)

let curve_point cn =
  let runs = List.init reps (fun _ -> run_once cn) in
  (match runs with
  | (_, _, reference) :: rest ->
      List.iter
        (fun (_, _, c) ->
          if c <> reference then
            failwith
              (Printf.sprintf "engine bench: checksum diverged at n=%d" cn))
        rest
  | [] -> ());
  let rates = List.sort compare (List.map (fun (r, _, _) -> r) runs) in
  let median = List.nth rates (reps / 2) in
  let lo = List.hd rates and hi = List.nth rates (reps - 1) in
  let _, resident, _ = List.hd runs in
  Printf.printf
    "  n=%-8d rounds=%-4d %6.2f Mmsg/s (min %.2f, max %.2f)  %6.1f \
     bytes/node\n\
     %!"
    cn (rounds_for cn) (median /. 1e6) (lo /. 1e6) (hi /. 1e6) resident;
  Printf.sprintf
    {|{"n":%d,"rounds":%d,"msgs_per_sec":%.0f,"msgs_per_sec_min":%.0f,"msgs_per_sec_max":%.0f,"resident_bytes_per_node":%.1f}|}
    cn (rounds_for cn) median lo hi resident

let run () =
  Printf.printf
    "engine scaling curve: metered deliver_and_step, fanout=%d, ~%d msgs \
     per run, median of %d runs\n\
     %!"
    fanout budget reps;
  let curve = List.map curve_point curve_ns in
  let json =
    Printf.sprintf
      {|{"name":"engine","fanout":%d,"budget":%d,"reps":%d,"curve":[%s]}|}
      fanout budget reps (String.concat "," curve)
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  print_endline json
