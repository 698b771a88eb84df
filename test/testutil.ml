(* Small helpers shared by the test executables. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A fixed-seed stream per test, split so tests do not interfere. *)
let rng ?(seed = 0xC0FFEEL) () = Prng.Stream.of_seed seed

(* Property tests draw from a fixed seed, so a failure replays exactly;
   QCHECK_SEED=k picks another one ([make qcheck-soak] draws fresh ones).
   A failing property prints the seed that reproduces it next to its
   counterexample, which is why every generator must carry a printer. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> 20160711
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k -> k
      | None -> failwith (Printf.sprintf "QCHECK_SEED=%S is not an integer" s))

let qcheck ?count ~name (arb : 'a QCheck.arbitrary) prop =
  if Option.is_none arb.QCheck.print then
    invalid_arg (Printf.sprintf "property %S: generator has no printer" name);
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      (QCheck.Test.make ?count ~name arb prop)
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "property %S failed; replay with QCHECK_SEED=%d\n%!" name
          qcheck_seed;
        raise e )
