(* Experiment E19: the two backends head to head under the same attacks.

   The paper's central claim is comparative: overlays that periodically
   redraw their structure (Sections 5-7) survive adversaries that
   classical static-assignment DHTs do not.  E19 makes the comparison
   explicit by running the identical client workload — same spec, same
   per-cell seed, same churn/attack/fault axes — against both backends of
   {!Workload.Driver}: the reconfigurable supernode DHT and a Chord ring
   with successor lists and finger tables.  Only the [backend=] scenario
   key differs between paired cells.

   Expected shape (checked by test/test_workload.ml on a smaller grid):
   - without an adversary both backends serve essentially everything;
     Chord pays more hops (iterative O(log n) routing vs the hypercube's
     d) but stays correct under churn thanks to successor-list repair;
   - under the stale-view group-kill adversary the reconfiguration
     backend holds goodput near 1.0 (its supernode assignment is redrawn
     every period, so the adversary's view ages out), while Chord
     collapses: its key-to-node assignment is static, so a t-late view of
     the successor lists still aims perfectly, and the believed replica
     chains of the hottest keys are wiped every round.

   The grid runs through Sweep.Exec (per-cell seeds derived from the cell
   id), so the table, the BENCH_e19.json cells array, and any checkpoint
   artifact are byte-identical at every domain count. *)

open Exp_util

let n = 512
let clients = 64
let rounds = 24
let period = 8
let retries = 3
let attack_frac = 0.2

let spec =
  Workload.Spec.make ~clients ~rounds ~keys:256
    ~arrivals:(Workload.Spec.Open_loop { rate = 0.5 })
    ~mix:{ Workload.Spec.read = 0.7; write = 0.2; publish = 0.1 }
    ~popularity:(Workload.Spec.Zipf 1.1) ~slo:8 ~timeout:16 ()

let cells =
  match
    Sweep.Grid.expand
      ~base:{ Simnet.Scenario.default with n; retry = retries }
      ~sweep:"e19"
      [
        Sweep.Grid.scenario_key "backend" [ "reconfig"; "chord" ];
        Sweep.Grid.scenario_key "adversary" [ "none"; "group-kill" ];
        Sweep.Grid.floats "churn" [ 0.0; 0.15 ];
        Sweep.Grid.floats "drop" [ 0.0; 0.05 ];
      ]
  with
  | Ok cells -> cells
  | Error e -> failwith e

let run_cell (cell : Sweep.Grid.cell) =
  let sc = cell.Sweep.Grid.scenario in
  let churn = Sweep.Grid.float_binding cell "churn" in
  let drop = Sweep.Grid.float_binding cell "drop" in
  let mode, backend, attack = Workload.Plane.decode sc in
  let faults =
    if drop > 0.0 then Some (Simnet.Faults.make ~drop ()) else None
  in
  let cfg =
    Workload.Driver.config ~mode ~period ~backend ~attack ~frac:attack_frac
      ~lateness:period
      ?churn:
        (if churn > 0.0 then
           Some { Workload.Driver.frac = churn; epoch = period }
         else None)
      ?faults ~retries:sc.Simnet.Scenario.retry spec
  in
  let report =
    Workload.Driver.run
      ~seed:(paired_seed ~sweep:"e19" cell)
      ~n:sc.Simnet.Scenario.n cfg
  in
  let t = report.Workload.Driver.total in
  let row =
    [
      Option.value sc.Simnet.Scenario.backend ~default:"reconfig";
      Option.value sc.Simnet.Scenario.adversary ~default:"none";
      flt ~decimals:2 churn;
      flt ~decimals:2 drop;
      int_c t.Workload.Driver.issued;
      flt ~decimals:3 (Workload.Driver.goodput t);
      int_c (Workload.Driver.percentile t 0.50);
      int_c (Workload.Driver.percentile t 0.99);
      int_c t.Workload.Driver.timed_out;
      int_c t.Workload.Driver.failed;
      int_c report.Workload.Driver.total_bits;
    ]
  in
  let bench =
    {
      Sweep.Agg.rounds;
      total_bits = report.Workload.Driver.total_bits;
      max_node_bits = 0;
    }
  in
  (row, bench)

(* One JSON object per cell, rebuilt from the printed row so the summary
   is a pure function of the same domain-count-invariant artifact. *)
let cells_json rows =
  let obj row =
    match row with
    | [ backend; attack; churn; drop; issued; goodput; p50; p99; timeout;
        failed; bits ] ->
        Printf.sprintf
          {|{"backend":"%s","attack":"%s","churn":%s,"drop":%s,"issued":%s,"goodput":%s,"p50":%s,"p99":%s,"timeout":%s,"failed":%s,"total_bits":%s}|}
          backend attack churn drop issued goodput p50 p99 timeout failed bits
    | _ -> failwith "e19: unexpected row shape"
  in
  "[" ^ String.concat "," (List.map obj rows) ^ "]"

let min_goodput rows ~backend =
  List.fold_left
    (fun acc row ->
      match row with
      | b :: _ :: _ :: _ :: _ :: g :: _ when b = backend ->
          Float.min acc (float_of_string g)
      | _ -> acc)
    1.0 rows

let e19 () =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E19 - reconfiguration vs Chord under the same workload: open \
            loop rate 0.5, zipf 1.1, mix 70/20/10, n=%d, %d clients, %d \
            rounds, period=%d, retry=%d, attack frac=%.2f"
           n clients rounds period retries attack_frac)
      ~columns:
        [
          "backend"; "attack"; "churn"; "drop"; "issued"; "goodput"; "p50";
          "p99"; "timeout"; "failed"; "total bits";
        ]
  in
  let rows, bench = sweep_rows ~sweep:"e19" cells run_cell in
  List.iter (Stats.Table.add_row table) rows;
  Stats.Table.note table
    "paired cells share the per-cell seed and the full scenario spec; only \
     backend= differs, so the environments are draw-for-draw identical";
  Stats.Table.note table
    "group-kill aims through a period-late view: reconfiguration redraws \
     the supernode assignment every period so the view ages out, while \
     Chord's static key-to-node assignment keeps the stale successor-list \
     view accurate and its believed replica chains get wiped";
  Stats.Table.print table;
  set_extra "cells" (cells_json rows);
  set_extra "reconfig_min_goodput"
    (Printf.sprintf "%.3f" (min_goodput rows ~backend:"reconfig"));
  set_extra "chord_min_goodput"
    (Printf.sprintf "%.3f" (min_goodput rows ~backend:"chord"));
  bench
