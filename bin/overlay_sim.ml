(* overlay_sim: command-line driver for every scenario in the library.

   [index] at the bottom is the single list of subcommands: the cmdliner
   group, the unknown-subcommand diagnostic and the sweep runners all
   come from it, so none can drift from the commands that exist.  The
   five scenarios with a sweep form (sample, churn, stabilize, chord,
   social) are each declared once as a [runner]: its knobs are both the
   subcommand's flags and the run=NAME cell's var: keys, and one [run]
   serves both. *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg default =
  let doc = "Number of nodes." in
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let rng_of_seed seed = Prng.Stream.of_seed (Int64.of_int seed)

(* --verbose turns on the Logs debug tracing the networks emit at epoch and
   window boundaries. *)
let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_term =
  Term.(
    const setup_logs
    $ Arg.(value & flag & info [ "verbose" ] ~doc:"Enable debug tracing."))

let json_term =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Also print a one-line machine-readable JSON summary.")

(* A usage error: the message on stderr, exit 2. *)
let die fmt =
  Printf.ksprintf
    (fun e ->
      Printf.eprintf "%s\n" e;
      Stdlib.exit 2)
    fmt

let ok_or_exit = function Ok v -> v | Error e -> die "%s" e

(* The run-shape flags shared by the driver subcommands — -n, --seed,
   --faults SPEC, --retry R, --trace FILE — funnel through a single
   Simnet.Scenario.of_args call, so their parsing, validation, and error
   wording live in one place instead of being duplicated per subcommand.
   All default off, leaving the paper's fault-free behaviour — and the
   golden CLI outputs — untouched. *)
let scenario_term ?(with_faults = true) ?(with_retry = true) ~default_n () =
  let trace_arg =
    let doc =
      "Write structured trace events to $(docv) as JSONL (CSV if the name \
       ends in .csv, compact binary if it ends in .bin).  See \
       docs/observability.md for the schema."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_format_arg =
    let doc =
      "Trace sink format: $(b,jsonl), $(b,csv) or $(b,bin) (default: by \
       the --trace path suffix).  Binary traces decode back to the exact \
       JSONL bytes via trace_check --export-jsonl."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let faults_arg =
    let doc =
      "Inject deterministic faults, e.g. \
       $(b,drop=0.05,dup=0.01,delay=2,crash=3).  Comma-separated KEY=VALUE \
       pairs; keys: drop, dup, delayp, delay, reorder, crash, crashround, \
       recover, seed.  Same seed and spec reproduce the run byte for byte.  \
       See docs/fault_model.md."
    in
    if with_faults then
      Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
    else Term.const None
  in
  let retry_arg =
    let doc =
      "Give the protocol drivers a recovery budget of $(docv) retries with \
       escalating provisioning (0, the default, reproduces the paper's \
       fault-free drivers)."
    in
    if with_retry then
      Arg.(value & opt int 0 & info [ "retry" ] ~docv:"R" ~doc)
    else Term.const 0
  in
  let domains_arg =
    let doc =
      "Worker domains for generating request schedules (workload, social; \
       0 = runtime default, honoring $(b,OVERLAY_DOMAINS)).  Engine rounds \
       always run on one domain.  Results are byte-identical for every \
       value."
    in
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc)
  in
  Term.(
    const (fun n seed faults retry domains trace trace_format ->
        let add key v kvs =
          match v with Some v -> (key, v) :: kvs | None -> kvs
        in
        [
          ("n", string_of_int n);
          ("seed", string_of_int seed);
          ("retry", string_of_int retry);
          ("domains", string_of_int domains);
        ]
        |> add "faults" faults |> add "trace" trace
        |> add "trace-format" trace_format
        |> Simnet.Scenario.of_args |> ok_or_exit)
    $ n_arg default_n $ seed_arg $ faults_arg $ retry_arg $ domains_arg
    $ trace_arg $ trace_format_arg)

(* A subcommand flag that spells a scenario key: the subcommand sets the
   field from the flag, a sweep cell reads the key from its scenario. *)
let sets arg (set : Simnet.Scenario.t -> _ -> Simnet.Scenario.t) =
  Term.(const (fun v sc -> set sc v) $ arg)

let with_sets base setters =
  List.fold_left
    (fun acc set -> Term.(const (fun sc set -> set sc) $ acc $ set))
    base setters

(* A fault-plan field the driver cannot honor raises Invalid_argument
   (see docs/fault_model.md); surface it as a clean CLI error instead of
   an uncaught exception. *)
let or_usage_error f = try f () with Invalid_argument msg -> die "%s" msg

(* Scenario.retry is a plain budget; the Section 3/4 drivers want it as a
   Retry.policy with escalating provisioning. *)
let retry_policy (sc : Simnet.Scenario.t) =
  if sc.Simnet.Scenario.retry = 0 then Core.Retry.fixed
  else Core.Retry.make ~max_retries:sc.Simnet.Scenario.retry ()

(* Scenario.domains = 0 means "runtime default"; drivers take an option. *)
let domains_opt (sc : Simnet.Scenario.t) =
  if sc.Simnet.Scenario.domains <= 0 then None
  else Some sc.Simnet.Scenario.domains

(* A converter from a library's own parser and printer, so a bad value is
   reported in the library's wording. *)
let string_conv parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

(* The value of [all] whose [to_string] is [s]. *)
let named what to_string all s =
  match List.find_opt (fun v -> to_string v = s) all with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S" what s)

(* The rounds= scenario key as a subcommand flag; -1 in a sweep cell
   means [default], the flag's own default. *)
type rounds_flag = { flag : string; docv : string; default : int; doc : string }

let rounds_flag ?(flag = "rounds") ?(docv = "R") ?(doc = "Rounds to simulate.")
    default =
  { flag; docv; default; doc }

let rounds_arg r =
  Arg.(value & opt int r.default & info [ r.flag ] ~docv:r.docv ~doc:r.doc)

let frac_arg =
  Arg.(
    value & opt float 0.25
    & info [ "frac" ] ~docv:"F" ~doc:"Fraction of nodes blocked per round.")

let lateness_arg =
  Arg.(
    value & opt int (-1)
    & info [ "lateness" ] ~docv:"L"
        ~doc:
          "Adversary lateness in rounds (default: one reconfiguration \
           period).")

let staleness_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "staleness" ] ~docv:"DIST"
        ~doc:
          "Draw the adversary's lateness per round instead of fixing it: \
           $(b,3) (fixed), $(b,0.25) (expected lateness, floor plus \
           Bernoulli on the fraction) or $(b,1..4) (uniform).  Overrides \
           --lateness.")

let parse_staleness = function
  | None -> None
  | Some s -> Some (ok_or_exit (Simnet.Snapshots.staleness_of_string s))

let set_lateness = sets lateness_arg (fun sc lateness -> { sc with lateness })

(* chord.t, social.t and equivalence.t pin this 0.1 default of the chord,
   social and workload subcommands, while a sweep's frac= keeps
   Scenario.default's 0 *)
let set_frac ~of_ =
  sets
    Arg.(
      value & opt float 0.1
      & info [ "frac" ] ~docv:"F"
          ~doc:
            (Printf.sprintf "Fraction of %s the adversary blocks per round."
               of_))
    (fun sc frac -> { sc with frac })

(* A Chord table length; the flag value -1 is the scenario's [None], the
   backend default. *)
let set_length name ~docv doc set =
  sets
    Arg.(value & opt int (-1) & info [ name ] ~docv ~doc)
    (fun sc v -> set sc (if v = -1 then None else Some v))

let set_staleness =
  sets staleness_arg (fun sc s -> { sc with staleness = parse_staleness s })

(* A flag value parsed as the scenario key itself, so the subcommand and
   a sweep spec reject a bad value in the same words. *)
let set_key key sc v =
  ok_or_exit (Simnet.Scenario.of_args ~base:sc [ (key, v) ])

(* ---------- knobs and the runner table ---------- *)

(* A runner's inputs beyond its scenario, each declared once with one
   name, default, doc string and parser: [term] reads them as subcommand
   flags, [read] from a sweep cell's var: bindings of the same names. *)
module Knobs = struct
  type 'a t = {
    term : 'a Term.t;
    read : Sweep.Grid.cell -> 'a;
    names : string list;
  }

  let parse name conv default (cell : Sweep.Grid.cell) =
    match List.assoc_opt name cell.Sweep.Grid.bindings with
    | None -> default
    | Some s -> (
        match Arg.conv_parser conv s with
        | Ok v -> v
        | Error (`Msg e) ->
            invalid_arg (Printf.sprintf "sweep: var:%s: %s" name e))

  let v name ~docv cv default doc =
    {
      term = Arg.(value & opt cv default & info [ name ] ~docv ~doc);
      read = parse name cv default;
      names = [ name ];
    }

  let flag name doc =
    {
      term = Arg.(value & flag & info [ name ] ~doc);
      read = parse name Arg.bool false;
      names = [ name ];
    }

  let ( let+ ) k f =
    { term = Term.(const f $ k.term); read = (fun c -> f (k.read c));
      names = k.names }

  let ( and+ ) a b =
    {
      term = Term.(const (fun x y -> (x, y)) $ a.term $ b.term);
      read =
        (fun c ->
          let x = a.read c in
          (x, b.read c));
      names = a.names @ b.names;
    }
end

(* A run's randomness: the subcommand roots both at --seed, a sweep cell
   at its (sweep, cell id) seed. *)
type src = { seed : int64; rng : Prng.Stream.t }

type ('k, 'r) runner = {
  name : string;
  doc : string;
  scenario : Simnet.Scenario.t Term.t;
      (** run-shape flags plus the flags spelling scenario keys *)
  rounds : rounds_flag option;
  knobs : 'k Knobs.t;
  cell_rng : Sweep.Grid.cell -> Prng.Stream.t;
  run : trace:Simnet.Trace.t -> src -> Simnet.Scenario.t -> 'k -> 'r;
  text : Simnet.Scenario.t -> 'r -> unit;
  json : Simnet.Scenario.t -> 'r -> string;
  record : 'r -> Sweep.Exec.record;
}

(* One subcommand; [cell] is its sweep form, absent for the commands
   without one. *)
type entry = {
  name : string;
  doc : string;
  term : unit Term.t;
  cell : cell option;
}

and cell = {
  knobs : string list;
  run_cell : trace:Simnet.Trace.t -> Sweep.Grid.cell -> Sweep.Exec.record;
}

let command name doc term = { name; doc; term; cell = None }

let of_runner (r : (_, _) runner) =
  let rounds_flag, cell_scenario =
    match r.rounds with
    | None -> ([], Fun.id)
    | Some r ->
        ( [ sets (rounds_arg r) (fun sc rounds -> { sc with rounds }) ],
          fun (sc : Simnet.Scenario.t) ->
            if sc.rounds < 0 then { sc with rounds = r.default } else sc )
  in
  let cli sc k json () =
    let trace = Simnet.Scenario.trace_sink sc in
    let src = { seed = Int64.of_int sc.Simnet.Scenario.seed;
                rng = Simnet.Scenario.rng sc } in
    let report = or_usage_error (fun () -> r.run ~trace src sc k) in
    Simnet.Trace.close trace;
    r.text sc report;
    if json then print_endline (r.json sc report)
  in
  let run_cell ~trace (c : Sweep.Grid.cell) =
    let sc = cell_scenario c.Sweep.Grid.scenario in
    r.record
      (r.run ~trace
         { seed = c.Sweep.Grid.seed; rng = r.cell_rng c }
         sc (r.knobs.read c))
  in
  {
    name = r.name;
    doc = r.doc;
    term =
      Term.(
        const cli
        $ with_sets r.scenario rounds_flag
        $ r.knobs.term $ json_term $ verbose_term);
    cell = Some { knobs = r.knobs.names; run_cell };
  }

(* ---------- sample ---------- *)

type sampled = {
  topology : string;
  nodes : int;
  plain : bool;
  result : Core.Sampling_result.t;
}

let sample_run ~trace src (sc : Simnet.Scenario.t) (topology, c, eps) =
  let plain =
    match sc.sampler with
    | None | Some "rapid" -> false
    | Some "plain" -> true
    | Some other ->
        invalid_arg (Printf.sprintf "unknown sampler %S (rapid|plain)" other)
  in
  let n = sc.n and retry = retry_policy sc and rng = src.rng in
  let nodes, result =
    match topology with
    | "hgraph" ->
        let g = Topology.Hgraph.random (Prng.Stream.split rng) ~n ~d:sc.d in
        ( n,
          if plain then
            Core.Rapid_hgraph.run_plain ~trace ~k:4
              ~rng:(Prng.Stream.split rng) g
          else
            Core.Rapid_hgraph.run ~eps ~c ~trace ~retry
              ~rng:(Prng.Stream.split rng) g )
    | "hypercube" ->
        let d = Core.Params.log2i_ceil n in
        let cube = Topology.Hypercube.create d in
        ( 1 lsl d,
          if plain then
            Core.Rapid_hypercube.run_plain ~trace ~k:4
              ~rng:(Prng.Stream.split rng) cube
          else
            Core.Rapid_hypercube.run ~eps ~c ~trace ~retry
              ~rng:(Prng.Stream.split rng) cube )
    | other ->
        invalid_arg
          (Printf.sprintf "unknown topology %S (hgraph|hypercube)" other)
  in
  { topology; nodes; plain; result }

let sample_text sc s =
  let r = s.result in
  Printf.printf "topology:        %s over %d nodes\n" s.topology s.nodes;
  Printf.printf "mode:            %s\n"
    (if s.plain then "plain random walks" else "rapid (pointer doubling)");
  Printf.printf "rounds:          %d\n" r.Core.Sampling_result.rounds;
  Printf.printf "walk length:     %d\n" r.Core.Sampling_result.walk_length;
  Printf.printf "samples/node:    %d\n" (Core.Sampling_result.samples_per_node r);
  Printf.printf "underflows:      %d\n" r.Core.Sampling_result.underflows;
  if Core.Retry.enabled (retry_policy sc) then
    Printf.printf "retries:         %d (%d escalated)\n"
      r.Core.Sampling_result.retries r.Core.Sampling_result.escalations;
  Printf.printf "max work/round:  %d bits\n"
    r.Core.Sampling_result.max_round_node_bits;
  let counts = Array.make s.nodes 0 in
  Array.iter
    (Array.iter (fun v -> counts.(v) <- counts.(v) + 1))
    r.Core.Sampling_result.samples;
  Printf.printf "uniformity:      chi2 p = %.3f, TV = %.4f (floor %.4f)\n"
    (Stats.Chi_square.test_uniform counts)
    (Stats.Distance.tv_counts_uniform counts)
    (Stats.Distance.expected_tv_noise_floor
       ~samples:(Array.fold_left ( + ) 0 counts)
       ~cells:s.nodes)

let sample =
  let plain_arg =
    let doc = "Use the plain random-walk baseline instead of rapid sampling." in
    Arg.(value & flag & info [ "plain" ] ~doc)
  in
  of_runner
    {
      name = "sample";
      doc = "run a node sampling primitive (Section 3)";
      scenario =
        with_sets
          (scenario_term ~with_faults:false ~default_n:1024 ())
          [
            (* --plain is the CLI spelling of sampler=plain *)
            sets plain_arg (fun sc plain ->
                if plain then { sc with sampler = Some "plain" } else sc);
          ];
      rounds = None;
      knobs =
        Knobs.(
          let+ topology =
            v "topology" ~docv:"T" Arg.string "hgraph"
              "Topology: hgraph or hypercube."
          and+ c =
            v "c" ~docv:"C" Arg.float 2.0
              "Schedule constant c (samples per node = c log2 n)."
          and+ eps =
            v "eps" ~docv:"EPS" Arg.float 0.5 "Schedule slack eps in (0, 1]."
          in
          (topology, c, eps));
      cell_rng = Sweep.Grid.cell_rng;
      run = sample_run;
      text = sample_text;
      json =
        (fun _ s ->
          let r = s.result in
          Printf.sprintf
            {|{"cmd":"sample","topology":"%s","n":%d,"plain":%b,"rounds":%d,"walk_length":%d,"samples_per_node":%d,"underflows":%d,"retries":%d,"escalations":%d,"max_round_node_bits":%d}|}
            s.topology s.nodes s.plain r.Core.Sampling_result.rounds
            r.Core.Sampling_result.walk_length
            (Core.Sampling_result.samples_per_node r)
            r.Core.Sampling_result.underflows r.Core.Sampling_result.retries
            r.Core.Sampling_result.escalations
            r.Core.Sampling_result.max_round_node_bits);
      record =
        (fun { result = r; _ } ->
          [
            ("rounds", Simnet.Trace.Int r.Core.Sampling_result.rounds);
            ( "samples_per_node",
              Simnet.Trace.Int (Core.Sampling_result.samples_per_node r) );
            ("underflows", Simnet.Trace.Int r.Core.Sampling_result.underflows);
            ( "max_node_bits",
              Simnet.Trace.Int r.Core.Sampling_result.max_round_node_bits );
          ]);
    }

(* ---------- churn ---------- *)

let churn_strategy_of_string =
  named "churn strategy" Core.Churn_adversary.to_string Core.Churn_adversary.all

type churned = {
  epochs : int;
  reports : Core.Churn_network.epoch_report list;
  final_n : int;
}

let churn_run ~trace src (sc : Simnet.Scenario.t) (leave_frac, join_frac) =
  let strategy =
    match sc.adversary with
    | None -> Core.Churn_adversary.Random_churn
    | Some s -> (
        match churn_strategy_of_string s with
        | Ok st -> st
        | Error e -> invalid_arg e)
  in
  let rng = src.rng in
  let net =
    Core.Churn_network.create ~trace ?faults:sc.faults
      ~retry:(retry_policy sc) ~rng:(Prng.Stream.split rng) ~n:sc.n ()
  in
  let reports = ref [] in
  for _ = 1 to sc.rounds do
    let plan =
      Core.Churn_adversary.plan ~trace strategy ~rng:(Prng.Stream.split rng)
        ~graph:(Core.Churn_network.graph net) ~leave_frac ~join_frac
    in
    reports :=
      Core.Churn_network.epoch net ~leaves:plan.Core.Churn_adversary.leaves
        ~join_introducers:plan.Core.Churn_adversary.join_introducers
      :: !reports
  done;
  { epochs = sc.rounds; reports = List.rev !reports;
    final_n = Core.Churn_network.size net }

let churn_sum f c =
  List.fold_left
    (fun acc (r : Core.Churn_network.epoch_report) -> acc + f r)
    0 c.reports

let churn_ok = churn_sum (fun r -> Bool.to_int (r.valid && r.connected))
let churn_rounds = churn_sum (fun r -> r.rounds)

(* the fault-model totals: retries, reply retries, stale pointers, and
   the least reachable fraction of any epoch *)
let churn_totals c =
  ( churn_sum (fun r -> r.sampling_retries) c,
    churn_sum (fun r -> r.reply_retries) c,
    churn_sum (fun r -> r.stale_pointers) c,
    List.fold_left
      (fun m (r : Core.Churn_network.epoch_report) ->
        Float.min m r.reachable_fraction)
      1.0 c.reports )

let churn_text sc c =
  Printf.printf "%-6s %-8s %-8s %-7s %-7s %-10s %-6s %s\n" "epoch" "before"
    "after" "left" "joined" "rounds" "valid" "connected";
  List.iteri
    (fun i (r : Core.Churn_network.epoch_report) ->
      Printf.printf "%-6d %-8d %-8d %-7d %-7d %-10d %-6b %b\n" (i + 1)
        r.n_before r.n_after r.left r.joined r.rounds r.valid r.connected)
    c.reports;
  if Simnet.Scenario.fault_model_active sc then
    let retries, reply_retries, stale, min_reach = churn_totals c in
    Printf.printf
      "faults: sampling retries=%d reply retries=%d stale pointers=%d min \
       reachable=%.3f\n"
      retries reply_retries stale min_reach

let churn =
  let strategy_arg =
    Arg.(
      value
      & opt
          (string_conv churn_strategy_of_string Core.Churn_adversary.to_string)
          Core.Churn_adversary.Random_churn
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Adversary: random, segment, or heavy-introducer.")
  in
  of_runner
    {
      name = "churn";
      doc = "drive the churn-resistant expander network (Section 4)";
      scenario =
        with_sets
          (scenario_term ~default_n:1024 ())
          [
            (* --strategy is the CLI spelling of adversary= *)
            sets strategy_arg (fun sc st ->
                let st = Core.Churn_adversary.to_string st in
                { sc with adversary = Some st });
          ];
      rounds =
        Some (rounds_flag ~flag:"epochs" ~docv:"E" ~doc:"Epochs to run." 10);
      knobs =
        Knobs.(
          let+ leave =
            v "leave-frac" ~docv:"F" Arg.float 0.3 "Fraction leaving per epoch."
          and+ join =
            v "join-frac" ~docv:"F" Arg.float 0.3 "Fraction joining per epoch."
          in
          (leave, join));
      cell_rng = Sweep.Grid.cell_rng;
      run = churn_run;
      text = churn_text;
      json =
        (fun _ c ->
          let retries, reply_retries, stale, min_reach = churn_totals c in
          Printf.sprintf
            {|{"cmd":"churn","epochs":%d,"epochs_ok":%d,"rounds":%d,"final_n":%d,"sampling_retries":%d,"reply_retries":%d,"stale_pointers":%d,"min_reachable_fraction":%.4f}|}
            c.epochs (churn_ok c) (churn_rounds c) c.final_n retries
            reply_retries stale min_reach);
      record =
        (fun c ->
          [
            ("epochs", Simnet.Trace.Int c.epochs);
            ("epochs_ok", Simnet.Trace.Int (churn_ok c));
            ("rounds", Simnet.Trace.Int (churn_rounds c));
            ("final_n", Simnet.Trace.Int c.final_n);
          ]);
    }

(* ---------- dos ---------- *)

let dos =
  let windows_arg =
    Arg.(
      value & opt int 6 & info [ "windows" ] ~docv:"W" ~doc:"Windows to run.")
  in
  let strat_arg =
    Arg.(
      value
      & opt
          (string_conv
             (named "DoS strategy" Core.Dos_adversary.to_string
                Core.Dos_adversary.all)
             Core.Dos_adversary.to_string)
          Core.Dos_adversary.Group_kill
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Adversary: random, group-kill, or isolate.")
  in
  let run sc windows frac lateness staleness strategy json () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let rng = Simnet.Scenario.rng sc in
    let net =
      or_usage_error (fun () ->
          Core.Dos_network.create ~c:2.0 ~trace
            ?faults:sc.Simnet.Scenario.faults ~retry:(retry_policy sc)
            ~rng:(Prng.Stream.split rng) ~n ())
    in
    let p = Core.Dos_network.period net in
    let lateness = if lateness < 0 then p else lateness in
    let staleness = parse_staleness staleness in
    let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
    let adv =
      Core.Dos_adversary.create ~trace ?staleness strategy
        ~rng:(Prng.Stream.split rng) ~lateness ~frac
    in
    Printf.printf
      "n=%d, %d supernodes, period=%d rounds, adversary=%s lateness=%s \
       frac=%.2f\n\n"
      n
      (Core.Dos_network.supernode_count net)
      p
      (Core.Dos_adversary.to_string strategy)
      (match staleness with
      | None -> string_of_int lateness
      | Some d -> Simnet.Snapshots.staleness_to_string d)
      frac;
    Printf.printf "%-7s %-15s %-13s %s\n" "window" "starved rounds"
      "disconnected" "reconfigured";
    let tot_starved = ref 0 and tot_disc = ref 0 and reconf_ok = ref 0 in
    let tot_fallbacks = ref 0
    and tot_retries = ref 0
    and last_boost = ref 1.0 in
    for w = 1 to windows do
      let starved = ref 0 and disconnected = ref 0 in
      for _ = 1 to p do
        Core.Dos_adversary.observe adv ~group_of:(Core.Dos_network.group_of net);
        let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
        let r = Core.Dos_network.run_round net ~blocked in
        if r.Core.Dos_network.starved_groups > 0 then incr starved;
        if not r.Core.Dos_network.connected then incr disconnected
      done;
      let reconf =
        match Core.Dos_network.last_window net with
        | Some lw ->
            tot_fallbacks := !tot_fallbacks + lw.Core.Dos_network.sampling_fallbacks;
            tot_retries := !tot_retries + lw.Core.Dos_network.sampling_retries;
            last_boost := lw.Core.Dos_network.c_multiplier;
            lw.Core.Dos_network.reconfigured
        | None -> false
      in
      tot_starved := !tot_starved + !starved;
      tot_disc := !tot_disc + !disconnected;
      if reconf then incr reconf_ok;
      Printf.printf "%-7d %-15s %-13s %b\n" w
        (Printf.sprintf "%d/%d" !starved p)
        (Printf.sprintf "%d/%d" !disconnected p)
        reconf
    done;
    if Simnet.Scenario.fault_model_active sc then
      Printf.printf
        "faults: sampling retries=%d fallback draws=%d c multiplier=%.2f\n"
        !tot_retries !tot_fallbacks !last_boost;
    Simnet.Trace.close trace;
    if json then begin
      Printf.printf
        {|{"cmd":"dos","windows":%d,"rounds":%d,"starved_rounds":%d,"disconnected_rounds":%d,"reconfigured_windows":%d,"sampling_retries":%d,"sampling_fallbacks":%d,"c_multiplier":%.4f}|}
        windows (windows * p) !tot_starved !tot_disc !reconf_ok !tot_retries
        !tot_fallbacks !last_boost;
      print_newline ()
    end
  in
  command "dos" "drive the DoS-resistant hypercube network (Section 5)"
    Term.(
      const run
      $ scenario_term ~default_n:4096 ()
      $ windows_arg $ frac_arg $ lateness_arg $ staleness_arg $ strat_arg
      $ json_term $ verbose_term)

(* ---------- stabilize ---------- *)

type stabilized = {
  corruption : Simnet.Corruption.spec;
  mode : Core.Stabilize.mode;
  report : Core.Stabilize.report;
}

let stabilize_run ~trace src (sc : Simnet.Scenario.t) mode =
  let corruption =
    match sc.corruption with
    | Some c -> c
    | None -> Simnet.Corruption.make Simnet.Corruption.Split
  in
  let mode =
    match Core.Stabilize.mode_of_string mode with
    | Ok m -> m
    | Error e -> invalid_arg e
  in
  let report =
    Core.Stabilize.run ~trace ~mode ~max_epochs:sc.rounds
      ~retry:(retry_policy sc) ?faults:sc.faults ~corruption ~rng:src.rng
      ~n:sc.n ~d:sc.d ()
  in
  { corruption; mode; report }

let stabilize_text (sc : Simnet.Scenario.t) s =
  let r = s.report in
  Printf.printf "stabilize: n=%d d=%d corruption=%s mode=%s\n\n" sc.n sc.d
    (Simnet.Corruption.to_spec s.corruption)
    (Core.Stabilize.mode_to_string s.mode);
  let row k v = Printf.printf "%-18s %s\n" k v in
  row "converged" (string_of_bool r.Core.Stabilize.converged);
  row "epochs" (string_of_int r.Core.Stabilize.epochs);
  row "rounds" (string_of_int r.Core.Stabilize.rounds);
  row "bits" (string_of_int r.Core.Stabilize.bits);
  row "initial violations" (string_of_int r.Core.Stabilize.initial_violations);
  row "residual" (string_of_int (List.length r.Core.Stabilize.residual));
  row "patches" (string_of_int r.Core.Stabilize.patches);
  row "splices" (string_of_int r.Core.Stabilize.splices);
  row "reconfigs" (string_of_int r.Core.Stabilize.reconfigs);
  row "retries" (string_of_int r.Core.Stabilize.retries);
  (* cap the residual listing: the count is in the row above, the first
     few examples are what a human needs *)
  List.iteri
    (fun i v -> if i < 6 then row "  violation" (Simnet.Invariants.describe v))
    r.Core.Stabilize.residual;
  let extra = List.length r.Core.Stabilize.residual - 6 in
  if extra > 0 then row "  violation" (Printf.sprintf "... and %d more" extra)

let stabilize =
  let corruption_arg =
    Arg.(
      value
      & opt string "class=split"
      & info [ "corruption" ] ~docv:"SPEC"
          ~doc:
            "Corrupted initial topology, e.g. \
             $(b,class=branch,severity=0.3,seed=7).  Comma-separated \
             KEY=VALUE pairs; classes: branch, split, range, crosslink, \
             partition, stale.  See docs/fault_model.md.")
  in
  of_runner
    {
      name = "stabilize";
      doc = "repair a corrupted topology via detect-and-repair reconfiguration";
      scenario =
        with_sets
          (scenario_term ~default_n:64 ())
          [ sets corruption_arg (set_key "corruption") ];
      rounds =
        Some
          (rounds_flag ~flag:"epochs" ~docv:"E"
             ~doc:"Detect-and-repair epoch budget." 16);
      (* a string, decoded in [run]: a bad mode exits 2 in both forms *)
      knobs =
        Knobs.v "mode" ~docv:"M" Arg.string "repair"
          "$(b,repair) runs detect-and-repair epochs; $(b,static) only \
           detects (the baseline that never converges).";
      (* stabilize.t pins both roots: the subcommand hands Stabilize.run
         the --seed stream itself, a run=stabilize cell a split of its
         cell stream *)
      cell_rng = (fun c -> Prng.Stream.split (Sweep.Grid.cell_rng c));
      run = stabilize_run;
      text = stabilize_text;
      json =
        (fun _ s ->
          let r = s.report in
          Printf.sprintf
            {|{"cmd":"stabilize","class":"%s","severity":%s,"mode":"%s","converged":%b,"epochs":%d,"rounds":%d,"bits":%d,"initial_violations":%d,"residual":%d,"patches":%d,"splices":%d,"reconfigs":%d,"retries":%d}|}
            (Simnet.Corruption.class_to_string s.corruption.Simnet.Corruption.cls)
            (Stats.Float_text.json_repr s.corruption.Simnet.Corruption.severity)
            (Core.Stabilize.mode_to_string s.mode)
            r.Core.Stabilize.converged r.Core.Stabilize.epochs
            r.Core.Stabilize.rounds r.Core.Stabilize.bits
            r.Core.Stabilize.initial_violations
            (List.length r.Core.Stabilize.residual)
            r.Core.Stabilize.patches r.Core.Stabilize.splices
            r.Core.Stabilize.reconfigs r.Core.Stabilize.retries);
      record =
        (fun { report = r; _ } ->
          [
            ("converged", Simnet.Trace.Bool r.Core.Stabilize.converged);
            ("epochs", Simnet.Trace.Int r.Core.Stabilize.epochs);
            ("rounds", Simnet.Trace.Int r.Core.Stabilize.rounds);
            ("bits", Simnet.Trace.Int r.Core.Stabilize.bits);
            ("residual", Simnet.Trace.Int (List.length r.Core.Stabilize.residual));
            ("patches", Simnet.Trace.Int r.Core.Stabilize.patches);
            ("splices", Simnet.Trace.Int r.Core.Stabilize.splices);
          ]);
    }

(* ---------- churndos ---------- *)

let churndos =
  let windows_arg =
    Arg.(
      value & opt int 10 & info [ "windows" ] ~docv:"W" ~doc:"Windows to run.")
  in
  let gamma_arg =
    Arg.(
      value & opt float 1.5
      & info [ "gamma" ] ~docv:"G"
          ~doc:"Per-window churn factor (grow then shrink alternately).")
  in
  let run sc windows gamma frac lateness () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let rng = Simnet.Scenario.rng sc in
    let net =
      or_usage_error (fun () ->
          Core.Churndos_network.create ~trace
            ?faults:sc.Simnet.Scenario.faults ~rng:(Prng.Stream.split rng)
            ~n ())
    in
    let lateness =
      if lateness < 0 then 2 * Core.Churndos_network.period net else lateness
    in
    let cube = Topology.Hypercube.create 12 in
    let adv =
      Core.Dos_adversary.create Core.Dos_adversary.Group_kill
        ~rng:(Prng.Stream.split rng) ~lateness ~frac
    in
    let blocked_for_round ~round:_ ~group_of ~n =
      Core.Dos_adversary.observe adv ~group_of;
      Core.Dos_adversary.blocked_set adv ~cube ~n
    in
    Printf.printf "%-7s %-8s %-8s %-9s %-7s %-11s %-8s %s\n" "window" "before"
      "after" "starved" "spread" "supernodes" "dims" "reconfigured";
    for w = 1 to windows do
      let cur = Core.Churndos_network.n net in
      let joins, leave_frac =
        if w mod 2 = 1 then
          (int_of_float ((gamma -. 1.0) *. float_of_int cur), 0.0)
        else (0, 1.0 -. (1.0 /. gamma))
      in
      let r =
        Core.Churndos_network.run_window net ~blocked_for_round ~joins
          ~leave_frac
      in
      Printf.printf "%-7d %-8d %-8d %-9d %-7d %-11d [%d..%d] %b\n" w
        r.Core.Churndos_network.n_before r.Core.Churndos_network.n_after
        r.Core.Churndos_network.starved_rounds
        r.Core.Churndos_network.dim_spread r.Core.Churndos_network.supernodes
        r.Core.Churndos_network.min_dim r.Core.Churndos_network.max_dim
        r.Core.Churndos_network.reconfigured
    done;
    Simnet.Trace.close trace
  in
  command "churndos" "drive the combined churn + DoS network (Section 6)"
    Term.(
      const run
      $ scenario_term ~with_retry:false ~default_n:4096 ()
      $ windows_arg $ gamma_arg $ frac_arg $ lateness_arg $ verbose_term)

(* ---------- groupsim ---------- *)

let groupsim =
  let run sc frac kill_group json () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let retry = retry_policy sc in
    let faults = sc.Simnet.Scenario.faults in
    let rng = Simnet.Scenario.rng sc in
    let d = Core.Params.dos_dimension ~c:2.0 ~n in
    let cube = Topology.Hypercube.create d in
    let supernodes = Topology.Hypercube.node_count cube in
    let group_of =
      Array.init n (fun _ -> Prng.Stream.int rng supernodes)
    in
    let proto =
      Core.Supernode_sampling.protocol ~c:2.0 ~trace
        ~fallback:(Core.Retry.enabled retry) ~cube ()
    in
    let gs =
      Core.Group_sim.create ~trace ?faults ~rng:(Prng.Stream.split rng) ~n
        ~group_of proto
    in
    let arng = Prng.Stream.split rng in
    Printf.printf
      "message-level group simulation: %d nodes, %d supernodes, %d network \
       rounds\n"
      n supernodes
      (Core.Group_sim.network_rounds_total gs);
    Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round ->
        let b = Array.make n false in
        if frac > 0.0 then
          Array.iter
            (fun v -> b.(v) <- true)
            (Prng.Stream.sample_distinct arng n
               ~k:(int_of_float (frac *. float_of_int n)));
        if kill_group >= 0 && round < 3 then
          Array.iteri (fun v g -> if g = kill_group then b.(v) <- true) group_of;
        b);
    let lost = Core.Group_sim.lost_groups gs in
    Printf.printf "lost groups:   [%s]\n"
      (String.concat "; " (List.map string_of_int lost));
    let counts = Array.make supernodes 0 in
    for x = 0 to supernodes - 1 do
      match Core.Group_sim.state_of gs x with
      | None -> ()
      | Some st ->
          Array.iter
            (fun v -> counts.(v) <- counts.(v) + 1)
            (Core.Supernode_sampling.samples st)
    done;
    if List.length lost < supernodes then
      Printf.printf "sample chi2 p: %.3f\n" (Stats.Chi_square.test_uniform counts);
    let m = Core.Group_sim.metrics gs in
    Printf.printf "messages:      %d\nmax work:      %d bits/node/round\n"
      (Simnet.Metrics.total_msgs m)
      (Simnet.Metrics.max_node_bits_ever m);
    if Simnet.Scenario.fault_model_active sc then begin
      let underflows = ref 0 and fallbacks = ref 0 in
      for x = 0 to supernodes - 1 do
        match Core.Group_sim.state_of gs x with
        | None -> ()
        | Some st ->
            underflows := !underflows + Core.Supernode_sampling.underflows st;
            fallbacks := !fallbacks + Core.Supernode_sampling.fallbacks st
      done;
      Printf.printf "faults:        underflows=%d fallback draws=%d\n"
        !underflows !fallbacks
    end;
    Simnet.Trace.close trace;
    if json then begin
      Printf.printf
        {|{"cmd":"groupsim","n":%d,"supernodes":%d,"net_rounds":%d,"lost_groups":%d,"messages":%d,"max_node_bits":%d}|}
        n supernodes
        (Core.Group_sim.network_rounds_total gs)
        (List.length lost)
        (Simnet.Metrics.total_msgs m)
        (Simnet.Metrics.max_node_bits_ever m);
      print_newline ()
    end
  in
  let kill_arg =
    Arg.(
      value & opt int (-1)
      & info [ "kill-group" ] ~docv:"G"
          ~doc:"Block every member of group G for the first simulation step.")
  in
  command "groupsim"
    "replay the Section 5 group machinery message-by-message (Lemmas 14/15)"
    Term.(
      const run
      $ scenario_term ~default_n:2048 ()
      $ frac_arg $ kill_arg $ json_term $ verbose_term)

(* ---------- anonymize ---------- *)

let anonymize =
  let requests_arg =
    Arg.(
      value & opt int 1000
      & info [ "requests" ] ~docv:"R" ~doc:"Requests to issue.")
  in
  let run n requests frac seed () =
    let rng = rng_of_seed seed in
    let net = Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split rng) ~n () in
    let anon = Apps.Anonymizer.create ~net ~rng:(Prng.Stream.split rng) in
    let blocked = Array.make n false in
    if frac > 0.0 then
      Array.iter
        (fun v -> blocked.(v) <- true)
        (Prng.Stream.sample_distinct (Prng.Stream.split rng) n
           ~k:(int_of_float (frac *. float_of_int n)));
    let delivered = ref 0 in
    let exits = Array.make (Core.Dos_network.supernode_count net) 0 in
    for _ = 1 to requests do
      let r = Apps.Anonymizer.request anon ~blocked in
      if r.Apps.Anonymizer.delivered then begin
        incr delivered;
        match r.Apps.Anonymizer.exit_group with
        | Some g -> exits.(g) <- exits.(g) + 1
        | None -> ()
      end
    done;
    Printf.printf "delivered:      %d/%d\n" !delivered requests;
    Printf.printf "exit entropy:   %.4f of maximum\n"
      (Stats.Entropy.normalized_of_counts exits);
    Printf.printf "rounds/request: 4\n"
  in
  command "anonymize"
    "issue anonymous requests through the relay overlay (Section 7.1)"
    Term.(const run $ n_arg 4096 $ requests_arg $ frac_arg $ seed_arg $ verbose_term)

(* ---------- dht ---------- *)

let dht =
  let ops_arg =
    Arg.(
      value & opt int 1000
      & info [ "ops" ] ~docv:"OPS" ~doc:"Write+read pairs to execute.")
  in
  let k_arg =
    Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Hypercube arity.")
  in
  let run n ops k frac seed () =
    let rng = rng_of_seed seed in
    let dht = Apps.Robust_dht.create ~k ~rng:(Prng.Stream.split rng) ~n () in
    let blocked = Array.make n false in
    if frac > 0.0 then
      Array.iter
        (fun v -> blocked.(v) <- true)
        (Prng.Stream.sample_distinct (Prng.Stream.split rng) n
           ~k:(int_of_float (frac *. float_of_int n)));
    let op_list =
      List.concat_map
        (fun i ->
          [ Apps.Robust_dht.Write (i, string_of_int i); Apps.Robust_dht.Read i ])
        (List.init ops (fun i -> i))
    in
    let b = Apps.Robust_dht.execute_batch dht ~blocked op_list in
    Printf.printf "supernodes:     %d (k=%d, d=%d)\n"
      (Apps.Robust_dht.supernode_count dht)
      k
      (Apps.Robust_dht.dimension dht);
    Printf.printf "served:         %d\n" b.Apps.Robust_dht.served;
    Printf.printf "failed:         %d\n" b.Apps.Robust_dht.failed;
    Printf.printf "max hops:       %d\n" b.Apps.Robust_dht.max_hops;
    Printf.printf "max group load: %d\n" b.Apps.Robust_dht.max_group_load
  in
  command "dht" "run a read/write batch against the robust DHT (Section 7.2)"
    Term.(const run $ n_arg 2048 $ ops_arg $ k_arg $ frac_arg $ seed_arg $ verbose_term)

(* ---------- request plane: workload and social ---------- *)

(* The plane flags both request-plane subcommands share.  Those spelling
   scenario keys set them, so Workload.Plane.decode — the decoder sweep
   and bench cells use — reads the subcommand's run the same way. *)
let plane_sets =
  let attack_arg =
    Arg.(
      value
      & opt
          (string_conv Workload.Attack.parse_strategy
             Workload.Attack.strategy_to_string)
          Workload.Attack.No_attack
      & info [ "attack" ] ~docv:"S"
          ~doc:"Adversary: none, random, or group-kill.")
  in
  let backend_arg =
    Arg.(
      value & opt string "reconfig"
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "Overlay backend serving the requests: $(b,reconfig) (the \
             paper's reconfigurable supernode DHT) or $(b,chord) \
             (iterative Chord lookups under the same request plane).")
  in
  [
    sets attack_arg (fun sc a ->
        { sc with adversary = Some (Workload.Attack.strategy_to_string a) });
    set_frac ~of_:"servers";
    set_lateness;
    sets backend_arg (fun sc b -> { sc with backend = Some b });
    set_length "chord-fingers" ~docv:"K"
      "Chord finger-table length (-1 = the id-space width m)."
      (fun sc chord_fingers -> { sc with chord_fingers });
    set_length "chord-succs" ~docv:"K"
      "Chord successor-list length (-1 = the backend default)."
      (fun sc chord_succs -> { sc with chord_succs });
    set_length "chord-period" ~docv:"K"
      "Chord maintenance period in rounds (-1 = the --period value)."
      (fun sc chord_period -> { sc with chord_period });
  ]

let plane_knobs =
  Knobs.(
    let+ period =
      v "period" ~docv:"P" Arg.int 8 "Reconfiguration period in rounds."
    and+ static =
      flag "static"
        "Never reconfigure (the static baseline the paper's networks are \
         measured against)."
    in
    (period, static))

let lateness_opt (sc : Simnet.Scenario.t) =
  if sc.lateness < 0 then None else Some sc.lateness

(* The report layout both subcommands share.  Only the chord backend
   prints a marker line, so the reconfig goldens stay byte-identical. *)
let print_plane_report (p : Workload.Plane.config) ~n ~header ~extra report =
  (match p.backend with
  | Workload.Plane.Robust -> ()
  | Workload.Plane.Chord _ -> print_string "backend: chord\n");
  print_endline header;
  Printf.printf "n=%d mode=%s period=%d attack=%s frac=%.2f lateness=%d%s\n\n"
    n
    (match p.mode with
    | Workload.Plane.Static -> "static"
    | Workload.Plane.Reconfig -> "reconfig")
    p.period
    (Workload.Attack.strategy_to_string p.attack)
    p.frac p.lateness extra;
  List.iter print_endline (Workload.Plane.table_lines report);
  Printf.printf "\nhop messages:   %d\n" report.Workload.Plane.hop_msgs;
  Printf.printf "max group load: %d\n" report.Workload.Plane.max_group_load

let workload =
  let arrivals_conv =
    string_conv Workload.Spec.parse_arrivals Workload.Spec.arrivals_to_string
  in
  let mix_conv =
    string_conv Workload.Spec.parse_mix Workload.Spec.mix_to_string
  in
  let clients_arg =
    Arg.(
      value & opt int 64 & info [ "clients" ] ~docv:"C" ~doc:"Workload clients.")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt arrivals_conv (Workload.Spec.Open_loop { rate = 0.25 })
      & info [ "arrivals" ] ~docv:"A"
          ~doc:
            "Arrival discipline: $(b,open:RATE) (Poisson arrivals per client \
             per round) or $(b,closed:THINK) (one outstanding request per \
             client, THINK idle rounds between completions).")
  in
  let mix_arg =
    Arg.(
      value
      & opt mix_conv
          { Workload.Spec.read = 0.7; write = 0.2; publish = 0.1 }
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Request mix as $(b,read=W,write=W,publish=W) (weights are \
             normalized).")
  in
  let keys_arg =
    Arg.(
      value & opt int 256 & info [ "keys" ] ~docv:"K" ~doc:"Distinct keys.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipf popularity exponent; 0 selects uniform key popularity.")
  in
  let slo_arg =
    Arg.(
      value & opt int 8
      & info [ "slo" ] ~docv:"L" ~doc:"Latency SLO in rounds.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 16
      & info [ "timeout" ] ~docv:"T"
          ~doc:"Rounds after arrival before a request is abandoned.")
  in
  let churn_arg =
    Arg.(
      value & opt float 0.0
      & info [ "churn" ] ~docv:"F"
          ~doc:"Fraction of servers churned out per epoch (0 = no churn).")
  in
  let churn_epoch_arg =
    Arg.(
      value & opt int 8
      & info [ "churn-epoch" ] ~docv:"E" ~doc:"Churn epoch length in rounds.")
  in
  let run sc (period, static) rounds clients arrivals mix keys zipf slo
      timeout churn churn_epoch json () =
    let mode, backend, attack =
      or_usage_error (fun () -> Workload.Plane.decode ~static sc)
    in
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let wretry = sc.Simnet.Scenario.retry in
    let popularity =
      if zipf <= 0.0 then Workload.Spec.Uniform else Workload.Spec.Zipf zipf
    in
    let spec =
      Workload.Spec.make ~clients ~rounds ~keys ~arrivals ~mix ~popularity ~slo
        ~timeout ()
    in
    let cfg =
      or_usage_error (fun () ->
          Workload.Driver.config ~mode ~period ~backend ~attack
            ~frac:sc.Simnet.Scenario.frac ?lateness:(lateness_opt sc)
            ?churn:
              (if churn > 0.0 then
                 Some { Workload.Driver.frac = churn; epoch = churn_epoch }
               else None)
            ?faults:sc.Simnet.Scenario.faults ~retries:wretry
            ?domains:(domains_opt sc) spec)
    in
    let report =
      or_usage_error (fun () ->
          Workload.Driver.run ~trace ~seed:(Int64.of_int sc.Simnet.Scenario.seed)
            ~n cfg)
    in
    Simnet.Trace.close trace;
    print_plane_report cfg.plane ~n
      ~header:
        (Printf.sprintf "workload: %s, mix %s, %d keys (%s)"
           (Workload.Spec.arrivals_to_string arrivals)
           (Workload.Spec.mix_to_string mix)
           keys
           (match popularity with
           | Workload.Spec.Uniform -> "uniform"
           | Workload.Spec.Zipf s -> Printf.sprintf "zipf %.2f" s))
      ~extra:(Printf.sprintf " churn=%.2f retry=%d" churn wretry)
      report;
    if json then begin
      let t = report.Workload.Driver.total in
      Printf.printf
        {|{"cmd":"workload","n":%d,"issued":%d,"ok":%d,"goodput":%.4f,"p50":%d,"p90":%d,"p99":%d,"slo_miss":%d,"timeout":%d,"failed":%d,"max_hops":%d,"hop_msgs":%d,"max_group_load":%d}|}
        n t.Workload.Driver.issued t.Workload.Driver.ok
        (Workload.Driver.goodput t)
        (Workload.Driver.percentile t 0.50)
        (Workload.Driver.percentile t 0.90)
        (Workload.Driver.percentile t 0.99)
        t.Workload.Driver.slo_miss t.Workload.Driver.timed_out
        t.Workload.Driver.failed t.Workload.Driver.max_hops
        report.Workload.Driver.hop_msgs report.Workload.Driver.max_group_load;
      print_newline ()
    end
  in
  command "workload"
    "run an open/closed-loop request workload against the DHT / pub-sub \
     stack under reconfiguration, DoS, churn, and faults (Section 7)"
    Term.(
      const run
      $ with_sets (scenario_term ~default_n:1024 ()) plane_sets
      $ plane_knobs.Knobs.term $ rounds_arg (rounds_flag 48) $ clients_arg $ arrivals_arg
      $ mix_arg $ keys_arg $ zipf_arg $ slo_arg $ timeout_arg $ churn_arg
      $ churn_epoch_arg $ json_term $ verbose_term)

let social_run ~trace src (sc : Simnet.Scenario.t)
    (users, rate, zipf, (period, static)) =
  (match sc.app with
  | None | Some "social" -> ()
  | Some other ->
      invalid_arg (Printf.sprintf "run=social cannot serve app=%s" other));
  let mode, backend, attack = Workload.Plane.decode ~static sc in
  let app =
    Apps.Social.config ~users ~rounds:sc.rounds ~rate ~zipf ?topics:sc.topics
      ?fanout:sc.fanout ?session:sc.session ()
  in
  let cfg =
    Workload.Social.config ~mode ~period ~backend ~attack ~frac:sc.frac
      ?lateness:(lateness_opt sc) ?staleness:sc.staleness ?faults:sc.faults
      ?domains:(domains_opt sc) app
  in
  (cfg, Workload.Social.run ~trace ~seed:src.seed ~n:sc.n cfg)

let social =
  let int_key key ~docv default doc set =
    sets Arg.(value & opt int default & info [ key ] ~docv ~doc) set
  in
  let session_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "session" ] ~docv:"ONLINE:EPOCH"
          ~doc:
            "User session cycle: every EPOCH rounds a fresh 1-ONLINE \
             fraction of users goes offline, and the same fraction of \
             servers churns out (default: everyone always online).")
  in
  of_runner
    {
      name = "social";
      doc =
        "run the Reddit-style social application: five traffic classes with \
         per-class SLOs over the pub-sub / DHT stack, with repost fan-out \
         and online/offline sessions";
      scenario =
        with_sets
          (scenario_term ~default_n:1024 ())
          (plane_sets
          @ [
              int_key "topics" ~docv:"T" 16 "Subreddit-like topics."
                (fun sc t -> { sc with topics = Some t });
              int_key "fanout" ~docv:"F" 2
                "Follower-feed publishes triggered per post (the repost \
                 fan-out)."
                (fun sc f -> { sc with fanout = Some f });
              sets session_arg (fun sc ->
                  Option.fold ~none:sc ~some:(set_key "session" sc));
              set_staleness;
            ]);
      rounds = Some (rounds_flag 48);
      knobs =
        Knobs.(
          let+ users =
            v "users" ~docv:"U" Arg.int 64 "Application users."
          and+ rate =
            v "rate" ~docv:"RATE" Arg.float 0.25
              "Mean new requests per online user per round (Poisson)."
          and+ zipf =
            v "zipf" ~docv:"S" Arg.float 1.1
              "Topic popularity exponent (s > 0)."
          and+ plane = plane_knobs in
          (users, rate, zipf, plane));
      cell_rng = Sweep.Grid.cell_rng;
      run = social_run;
      text =
        (fun sc (cfg, report) ->
          let app = cfg.Workload.Social.app in
          print_plane_report cfg.plane ~n:sc.n
            ~header:
              (Printf.sprintf
                 "social: %d users, %d topics, fanout %d, rate %.2f, zipf \
                  %.2f, session %s"
                 app.users app.topics app.fanout app.rate app.zipf
                 (match app.session with
                 | None -> "-"
                 | Some (online, epoch) -> Printf.sprintf "%g:%d" online epoch))
            ~extra:"" report);
      json =
        (fun sc (_, report) ->
          let cls c =
            Printf.sprintf
              {|"%s":{"issued":%d,"ok":%d,"goodput":%.4f,"p99":%d,"slo_miss":%d}|}
              c.Workload.Plane.cls c.Workload.Plane.issued c.Workload.Plane.ok
              (Workload.Plane.goodput c)
              (Workload.Plane.percentile c 0.99)
              c.Workload.Plane.slo_miss
          in
          Printf.sprintf {|{"cmd":"social","n":%d,%s,%s}|} sc.n
            (String.concat "," (List.map cls report.Workload.Plane.classes))
            (cls report.Workload.Plane.total));
      record =
        (fun (_, r) ->
          let per_class (c : Workload.Plane.class_report) =
            [
              (c.cls ^ "_goodput", Simnet.Trace.Float (Workload.Plane.goodput c));
              (c.cls ^ "_p99", Simnet.Trace.Int (Workload.Plane.percentile c 0.99));
            ]
          in
          List.concat_map per_class r.classes
          @ [
              ("goodput", Simnet.Trace.Float (Workload.Plane.goodput r.total));
              ("slo_miss", Simnet.Trace.Int r.total.slo_miss);
              ("hop_msgs", Simnet.Trace.Int r.hop_msgs);
              ("total_bits", Simnet.Trace.Int r.total_bits);
            ]);
    }

(* ---------- chord ---------- *)

let chord_run ~trace src (sc : Simnet.Scenario.t)
    (keys, lookups, zipf, churn, churn_epoch) =
  let strategy =
    match sc.adversary with
    | None -> Chord.Adversary.No_attack
    | Some s -> (
        match Chord.Adversary.parse_strategy s with
        | Ok st -> st
        | Error e -> invalid_arg e)
  in
  let cfg =
    Chord.Sim.config ~rounds:sc.rounds ?fingers:sc.chord_fingers
      ?succs:sc.chord_succs ?period:sc.chord_period ~keys ~lookups ~zipf
      ~strategy ~frac:sc.frac ~lateness:sc.lateness ?staleness:sc.staleness
      ?churn:(if churn > 0.0 then Some (churn, churn_epoch) else None)
      ?faults:sc.faults ~retries:sc.retry ~n:sc.n ()
  in
  Chord.Sim.run ~trace ~seed:src.seed cfg

let chord =
  let attack_arg =
    Arg.(
      value & opt string "none"
      & info [ "attack" ] ~docv:"S"
          ~doc:
            "Adversary: $(b,none), $(b,random), or $(b,succ-kill) (the \
             stale-view successor-list attack; $(b,group-kill) is accepted \
             as an alias so one spec drives both backends).")
  in
  of_runner
    {
      name = "chord";
      doc =
        "run the Chord backend: ring maintenance + probe lookups under \
         churn, faults, and the stale-view adversary";
      scenario =
        with_sets
          (scenario_term ~default_n:256 ())
          [
            sets attack_arg (fun sc a -> { sc with adversary = Some a });
            set_frac ~of_:"nodes";
            set_lateness;
            set_staleness;
            set_length "fingers" ~docv:"NF"
              "Finger-table length (-1 = the id-space width m)."
              (fun sc chord_fingers -> { sc with chord_fingers });
            set_length "succs" ~docv:"R"
              "Successor-list length (-1 = max 2 (log2 n))."
              (fun sc chord_succs -> { sc with chord_succs });
            set_length "period" ~docv:"P"
              "Maintenance period in rounds (-1 = 8)."
              (fun sc chord_period -> { sc with chord_period });
          ];
      rounds = Some (rounds_flag 64);
      knobs =
        Knobs.(
          let+ keys = v "keys" ~docv:"K" Arg.int 256 "Distinct keys."
          and+ lookups =
            v "lookups" ~docv:"L" Arg.int 8 "Probe lookups per round."
          and+ zipf =
            v "zipf" ~docv:"S" Arg.float 1.1
              "Zipf popularity exponent; 0 selects uniform key popularity."
          and+ churn =
            v "churn" ~docv:"F" Arg.float 0.0
              "Fraction of nodes churned out per epoch (0 = no churn)."
          and+ churn_epoch =
            v "churn-epoch" ~docv:"E" Arg.int 8 "Churn epoch length in rounds."
          in
          (keys, lookups, zipf, churn, churn_epoch));
      cell_rng = Sweep.Grid.cell_rng;
      run = chord_run;
      text = (fun _ r -> List.iter print_endline (Chord.Sim.summary_lines r));
      json =
        (fun _ r ->
          Printf.sprintf
            {|{"cmd":"chord","n":%d,"m":%d,"issued":%d,"ok":%d,"goodput":%.4f,"p50":%d,"p99":%d,"max_hops":%d,"timeouts":%d,"lookup_msgs":%d,"maint_msgs":%d,"total_bits":%d,"succ_ok":%.4f,"connected":%b,"members":%d}|}
            r.Chord.Sim.config.Chord.Sim.n r.Chord.Sim.m r.Chord.Sim.issued
            r.Chord.Sim.ok (Chord.Sim.goodput r)
            (Chord.Sim.percentile r 0.50)
            (Chord.Sim.percentile r 0.99)
            r.Chord.Sim.max_hops r.Chord.Sim.lookup_timeouts
            r.Chord.Sim.lookup_msgs r.Chord.Sim.maint.Chord.Net.msgs
            r.Chord.Sim.total_bits r.Chord.Sim.succ_ok r.Chord.Sim.connected
            r.Chord.Sim.members);
      record =
        (fun r ->
          [
            ("goodput", Simnet.Trace.Float (Chord.Sim.goodput r));
            ("p50", Simnet.Trace.Int (Chord.Sim.percentile r 0.50));
            ("p99", Simnet.Trace.Int (Chord.Sim.percentile r 0.99));
            ("max_hops", Simnet.Trace.Int r.Chord.Sim.max_hops);
            ("maint_msgs", Simnet.Trace.Int r.Chord.Sim.maint.Chord.Net.msgs);
            ("total_bits", Simnet.Trace.Int r.Chord.Sim.total_bits);
            ("succ_ok", Simnet.Trace.Float r.Chord.Sim.succ_ok);
            ("connected", Simnet.Trace.Bool r.Chord.Sim.connected);
            ("members", Simnet.Trace.Int r.Chord.Sim.members);
          ]);
    }

(* ---------- sweep ---------- *)

let sweep_value_string = function
  | Simnet.Trace.Int i -> string_of_int i
  | Simnet.Trace.Bool b -> string_of_bool b
  | Simnet.Trace.String s -> s
  | Simnet.Trace.Float f -> Stats.Float_text.repr f

(* Cell table: one row per cell, one column per payload key, widths fit
   the data.  Cached/fresh status is deliberately not printed — stdout
   must be identical between a fresh run and a resumed one. *)
let sweep_print_table (outcomes : Sweep.Exec.record Sweep.Exec.outcome list) =
  let keys =
    match outcomes with
    | [] -> []
    | o :: _ -> List.map fst o.Sweep.Exec.value
  in
  let rows =
    List.map
      (fun (o : _ Sweep.Exec.outcome) ->
        ( o.Sweep.Exec.cell.Sweep.Grid.id,
          List.map
            (fun k ->
              match List.assoc_opt k o.Sweep.Exec.value with
              | Some v -> sweep_value_string v
              | None -> "-")
            keys ))
      outcomes
  in
  let width header col =
    List.fold_left
      (fun w s -> max w (String.length s))
      (String.length header) col
  in
  let cell_w = width "cell" (List.map fst rows) in
  let col_ws =
    List.mapi (fun i k -> width k (List.map (fun (_, vs) -> List.nth vs i) rows))
      keys
  in
  let pad_left w s = String.make (w - String.length s) ' ' ^ s in
  let pad_right w s = s ^ String.make (w - String.length s) ' ' in
  Printf.printf "%s" (pad_right cell_w "cell");
  List.iter2 (fun k w -> Printf.printf "  %s" (pad_left w k)) keys col_ws;
  print_newline ();
  List.iter
    (fun (id, vs) ->
      Printf.printf "%s" (pad_right cell_w id);
      List.iter2 (fun v w -> Printf.printf "  %s" (pad_left w v)) vs col_ws;
      print_newline ())
    rows

(* Every run=NAME cell is the subcommand NAME's own run: each is pure in
   its cell — scenario fields from the cell scenario, knobs from its var:
   bindings, randomness from its (sweep, cell id)-derived seed — so
   results are independent of sharding, domain count, and which other
   cells exist. *)
let sweep subcommands =
  let runners =
    List.filter_map
      (fun (e : entry) -> Option.map (fun c -> (e.name, c)) e.cell)
      subcommands
  in
  let runner_names = String.concat "|" (List.map fst runners) in
  let spec_arg =
    let doc =
      Printf.sprintf
        "Grid spec string, e.g. \
         $(b,sweep=demo;run=sample;axis:n=64|128;var:c=1.5|2).  Segments \
         separated by ';': $(b,sweep=NAME) names the sweep, $(b,run=R) picks \
         the per-cell runner (%s), $(b,axis:KEY=v1|v2|...) adds a scenario \
         axis, $(b,var:KEY=v1|v2|...) a free axis the runner reads, and any \
         other KEY=VALUE sets the base scenario.  See docs/sweeps.md."
        runner_names
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"SPEC" ~doc)
  in
  let file_arg =
    let doc =
      "Read the grid spec from $(docv) (same syntax; newlines also \
       separate segments, '#' starts a comment)."
    in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Stream one JSONL record per completed cell to $(docv); rerunning \
       with the same file skips recorded cells and resumes to a \
       byte-identical artifact."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains that run sweep cells in parallel (0 = runtime \
       default, honours OVERLAY_DOMAINS); results and artifacts are \
       identical for every value."
    in
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let trace_arg =
    let doc =
      "Write per-cell progress events to $(docv) as JSONL (CSV if the \
       name ends in .csv, compact binary if it ends in .bin)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let cell_traces_arg =
    let doc =
      "Write one compact binary trace per freshly computed cell under \
       directory $(docv) (created if missing); checkpoint records \
       reference each cell's file under the reserved 'trace' key.  \
       Decode with trace_check --export-jsonl."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "cell-traces" ] ~docv:"DIR" ~doc)
  in
  (* a var: axis the runner does not read would silently run at the
     knob's default *)
  let check_var run (c : cell) v =
    if not (List.mem v c.knobs) then
      die "sweep: var:%s is not a %s knob (%s)" v run
        (match Simnet.Scenario.nearest c.knobs v with
        | Some k -> "did you mean " ^ k ^ "?"
        | None -> "knobs: " ^ String.concat "|" c.knobs)
  in
  let run spec file checkpoint domains trace_path cell_traces json () =
    let parsed =
      match (spec, file) with
      | Some s, None -> Sweep.Spec.parse s
      | None, Some f -> Sweep.Spec.load f
      | Some _, Some _ -> Error "pass --spec or --file, not both"
      | None, None -> Error "pass --spec STRING or --file FILE"
    in
    let sp, cells =
      ok_or_exit
        (Result.bind parsed (fun sp ->
             Result.map (fun cells -> (sp, cells)) (Sweep.Spec.cells sp)))
    in
    let cell =
      match List.assoc_opt sp.Sweep.Spec.run runners with
      | Some c -> c
      | None ->
          die "unknown sweep runner %S (%s)"
            sp.Sweep.Spec.run runner_names
    in
    List.iter (check_var sp.Sweep.Spec.run cell) sp.Sweep.Spec.vars;
    let trace =
      match trace_path with
      | None -> Simnet.Trace.null
      | Some p -> Simnet.Trace.open_file p
    in
    let outcomes =
      or_usage_error (fun () ->
          Sweep.Exec.run
            ?domains:(if domains <= 0 then None else Some domains)
            ?checkpoint ~trace ?cell_traces ~sweep:sp.Sweep.Spec.name
            ~codec:Sweep.Exec.record_codec cells cell.run_cell)
    in
    Simnet.Trace.close trace;
    Printf.printf "sweep %s: %d cells (run=%s)\n\n" sp.Sweep.Spec.name
      (List.length outcomes) sp.Sweep.Spec.run;
    sweep_print_table outcomes;
    if json then
      List.iter
        (fun (o : _ Sweep.Exec.outcome) ->
          print_endline
            (Simnet.Trace.jsonl_of_pairs
               (("cell", Simnet.Trace.String o.Sweep.Exec.cell.Sweep.Grid.id)
               :: o.Sweep.Exec.value)))
        outcomes
  in
  command "sweep"
    "run a declarative experiment grid (checkpointed, resumable, \
     domain-parallel)"
    Term.(
      const run $ spec_arg $ file_arg $ checkpoint_arg $ domains_arg
      $ trace_arg $ cell_traces_arg $ json_term $ verbose_term)

let index =
  let subcommands =
    [
      sample; churn; dos; stabilize; churndos; groupsim; anonymize; dht;
      workload; chord; social;
    ]
  in
  subcommands @ [ sweep subcommands ]

let () =
  (* An unknown subcommand gets a deterministic exit-2 diagnostic listing
     every subcommand with its one-liner (cmdliner's own error goes to a
     pager-formatted usage block with a different exit code). *)
  (match Array.to_list Sys.argv with
  | _ :: arg :: _
    when String.length arg > 0
         && arg.[0] <> '-'
         && arg <> "help"
         && not (List.exists (fun (e : entry) -> e.name = arg) index) ->
      Printf.eprintf "overlay_sim: unknown subcommand %S\n\nSubcommands:\n" arg;
      List.iter
        (fun (e : entry) -> Printf.eprintf "  %-9s  %s\n" e.name e.doc)
        index;
      Stdlib.exit 2
  | _ -> ());
  let doc =
    "churn- and DoS-resistant overlay networks based on network \
     reconfiguration (SPAA 2016)"
  in
  let info = Cmd.info "overlay_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map
             (fun (e : entry) -> Cmd.v (Cmd.info e.name ~doc:e.doc) e.term)
             index)))
