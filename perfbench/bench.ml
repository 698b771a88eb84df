(* The end-to-end benchmark's runner.

     bench.exe run --workload W --seed N --seconds S --trace 0|1 [--scale small]
     bench.exe selftest

   [run] repeats the workload with the same seed until [--seconds] are
   spent and prints, as its last line, one JSON object with the keys
   correct / attempted / failed / metrics.  Untraced ([--trace 0]) it
   reports the end-to-end metrics as medians over the repetitions;
   traced ([--trace 1]) it alternates untraced and traced twins of the
   same seed, checks their reports are identical, and reports the
   per-layer metrics.  [selftest] runs every workload at small scale and
   checks the traced/untraced identity and the layer accounting. *)

open Workloads

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("req_per_s", "1/s");
    ("hop_msgs_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("reshuffle.calls", "count");
    ("reshuffle.busy_s", "s");
    ("reshuffle.ms_p50", "ms");
    ("reshuffle.minor_words", "words");
    ("serve.ops", "count");
    ("serve.busy_s", "s");
    ("serve.ns_per_op", "ns");
    ("serve.hops_per_op", "hops");
    ("serve.ok_ratio", "ratio");
    ("serve.minor_words_per_op", "words");
    ("entry.busy_s", "s");
    ("adversary.observe_s", "s");
    ("adversary.mark_s", "s");
    ("maint.busy_s", "s");
    ("churn.busy_s", "s");
    ("driver.self_s", "s");
    ("setup.create_s", "s");
    ("setup.schedule_s", "s");
    ("round.ms_p50", "ms");
    ("round.ms_tail", "ms");
    ("round.samples", "count");
    ("group_sim.round_busy_s", "s");
    ("group_sim.ns_per_msg", "ns");
    ("group_sim.minor_words_per_msg", "words");
    ("hop_msgs", "count");
    ("traced.wall_s", "s");
    ("trace.overhead_s", "s");
  ]

(* The layer times of a traced run.  They partition its wall time by
   construction: [driver.self_s] and the set-up split are residuals (wall
   minus the timed layers), so their sum equals the wall up to float
   rounding.  The timed layers fit in the wall exactly when no residual is
   negative, and that is what the self-test checks. *)
let busy_layers =
  [
    "reshuffle.busy_s"; "serve.busy_s"; "entry.busy_s"; "adversary.observe_s";
    "adversary.mark_s"; "maint.busy_s"; "churn.busy_s"; "driver.self_s";
    "setup.create_s"; "setup.schedule_s"; "group_sim.round_busy_s";
  ]

(* Setup-only repetitions per untraced run, on top of each run's own.  They
   run after the first repetition, so the high-water mark read there does
   not depend on them. *)
let setup_reps = 8

let layer o name = Option.value (List.assoc_opt name o.layers) ~default:0.0

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
          (json_number v) unit)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " fields);
  print_newline ()

let report_line w ~seed ~traced i o =
  Printf.printf "%s seed=%Ld iter=%d traced=%b wall_s=%.6f setup_s=%.6f %s digest=%s\n%!"
    w.name seed i traced o.wall o.setup o.summary o.digest;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n%!" e) o.errors

(* Repeat [step] while the next repetition is expected to end within
   [seconds] of [start], after the repetitions [first] that took [last]
   seconds each; always at least once. *)
let repeat ?(first = []) ?(last = 0.0) ~start ~seconds step =
  let rec go acc last =
    if acc <> [] && Probe.now () -. start +. last > seconds then List.rev acc
    else
      let t = Probe.now () in
      let x = step (List.length acc) in
      go (x :: acc) (Probe.now () -. t)
  in
  go (List.rev first) last

let loop_s o = o.wall -. o.setup

let run w ~scale ~seed ~seconds ~traced =
  let start = Probe.now () in
  (* the high-water mark after the first run, before anything else has
     run: later repetitions of the same seed would only add timing noise *)
  let peak_rss = ref 0.0 in
  let once ~traced i =
    Gc.full_major ();
    let o = w.run scale ~seed ~traced in
    if i = 0 then peak_rss := Probe.peak_rss_mb ();
    report_line w ~seed ~traced i o;
    o
  in
  let setups, runs, pairs =
    if traced then
      let pairs =
        repeat ~start ~seconds (fun i ->
            let u = once ~traced:false i in
            let t = once ~traced:true i in
            (u, t))
      in
      ([], List.concat_map (fun (u, t) -> [ u; t ]) pairs, pairs)
    else
      let t = Probe.now () in
      let first = once ~traced:false 0 in
      let last = Probe.now () -. t in
      let setups =
        List.init setup_reps (fun _ ->
            Gc.full_major ();
            w.setup_only scale ~seed)
      in
      (setups, repeat ~first:[ first ] ~last ~start ~seconds (once ~traced:false), [])
  in
  let digest = (List.hd runs).digest in
  let identical = List.for_all (fun o -> o.digest = digest) runs in
  if not identical then print_endline "  CHECK FAILED: reports differ between repetitions";
  let med f = Probe.median (List.map f runs) in
  let metrics =
    if not traced then
      [
        med (fun o -> o.wall);
        Probe.median (setups @ List.map (fun o -> o.setup) runs);
        med (fun o -> float_of_int o.ops /. loop_s o);
        med (fun o -> float_of_int o.hop_msgs /. loop_s o);
        !peak_rss;
      ]
      |> List.map2 (fun (name, unit) v -> (name, unit, v)) end_to_end
    else
      let traced_runs = List.map snd pairs in
      let rounds = List.concat_map (fun o -> List.map (fun d -> 1e3 *. d) o.rounds) traced_runs in
      let value = function
        | "round.ms_p50" -> Probe.median rounds
        | "round.ms_tail" -> Probe.tail rounds
        | "round.samples" -> float_of_int (List.length rounds)
        | "traced.wall_s" -> Probe.median (List.map (fun o -> o.wall) traced_runs)
        | "trace.overhead_s" ->
            Probe.median (List.map (fun (u, t) -> t.wall -. u.wall) pairs)
        | name -> Probe.median (List.map (fun o -> layer o name) traced_runs)
      in
      List.map (fun (name, unit) -> (name, unit, value name)) per_layer
  in
  (* a metric that is not a finite number is a broken measurement *)
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then print_endline "  CHECK FAILED: a metric is not finite";
  let correct = identical && finite && List.for_all (fun o -> o.errors = []) runs in
  let attempted = List.fold_left (fun a o -> a + o.ops) 0 runs in
  let failed =
    if correct then List.fold_left (fun a o -> a + o.failed) 0 runs else attempted
  in
  print_result ~correct ~attempted ~failed metrics;
  if correct then 0 else 1

(* Small-scale identity and accounting checks for every workload. *)
let selftest () =
  let seed = 7L in
  let results =
    List.map
      (fun w ->
        let u = w.run Small ~seed ~traced:false in
        let t = w.run Small ~seed ~traced:true in
        let busy = List.fold_left (fun a name -> a +. layer t name) 0.0 busy_layers in
        (* a negative residual means timed layers overlap or outgrow the wall *)
        let negative = List.filter (fun name -> layer t name < 0.0) busy_layers in
        let problems =
          List.concat
            [
              u.errors;
              t.errors;
              (if u.digest = t.digest then []
               else [ Printf.sprintf "traced digest %s <> untraced %s" t.digest u.digest ]);
              List.map (fun name -> name ^ " < 0") negative;
              (if u.failed = 0 then [] else [ Printf.sprintf "%d operations failed" u.failed ]);
            ]
        in
        Printf.printf "selftest %-16s %s (digest %s, layers %.4f of %.4f s)\n%!" w.name
          (if problems = [] then "ok" else "FAILED")
          u.digest busy t.wall;
        List.iter (fun p -> Printf.printf "  %s\n%!" p) problems;
        problems = [])
      Workloads.all
  in
  if List.for_all Fun.id results then 0 else 1

let usage () =
  prerr_endline
    "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1 [--scale full|small]\n\
    \       bench.exe selftest";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "selftest" ] -> exit (selftest ())
  | "run" :: opts ->
      let rec parse acc = function
        | [] -> acc
        | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] opts in
      let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
      let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
      List.iter
        (fun (k, _) ->
          if not (List.mem k [ "workload"; "seed"; "seconds"; "trace"; "scale" ]) then usage ())
        opts;
      let w =
        match List.find_opt (fun w -> w.name = get "workload") Workloads.all with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %S (known: %s)\n" (get "workload")
              (String.concat ", " (List.map (fun w -> w.name) Workloads.all));
            exit 2
      in
      let scale =
        match List.assoc_opt "scale" opts with
        | None | Some "full" -> Full
        | Some "small" -> Small
        | Some _ -> usage ()
      in
      let traced = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
      let seconds = int "seconds" in
      if seconds < 1 then usage ();
      exit
        (run w ~scale ~seed:(Int64.of_int (int "seed"))
           ~seconds:(float_of_int seconds) ~traced)
  | _ -> usage ()
