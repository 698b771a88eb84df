(** Textual grid specs for the [overlay_sim sweep] subcommand.

    A spec is a list of segments separated by [;] or newlines, with
    [#]-to-end-of-line comments:

    {v
    sweep=demo; run=sample        # sweep name and per-cell runner
    n=256; d=8                    # base-scenario overrides (Scenario.of_args)
    axis:seed=1|2|3               # scenario axis: values routed through of_args
    axis:faults=drop=0.01|drop=0.05
    var:c=1.5|2                   # free axis: recorded, read back by the runner
    v}

    Segments split on their {e first} [=], and axis values on [|], so
    fault sub-specs nest without quoting.  [axis:KEY] becomes a
    {!Grid.scenario_key} axis (values validated like the CLI flags);
    [var:KEY] a {!Grid.strings} axis the runner reads with
    {!Grid.binding} and friends; every other [KEY=VALUE] folds into the
    base scenario.  [sweep] defaults to ["sweep"], [run] to ["sample"]
    — runner names are interpreted by the subcommand, not here. *)

type t = {
  name : string;  (** sweep name; keys seeds and checkpoint records *)
  run : string;  (** per-cell runner name, e.g. ["sample"] *)
  base : Simnet.Scenario.t;
  axes : Grid.axis list;  (** in spec order (first = slowest-varying) *)
  vars : string list;  (** names of the [var:] axes, in spec order *)
}

val parse : string -> (t, string) result
val load : string -> (t, string) result
(** [load path]: {!parse} the contents of [path]. *)

val cells : t -> (Grid.cell list, string) result
(** {!Grid.expand} over the spec's base and axes, keyed by its name. *)
