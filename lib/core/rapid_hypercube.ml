module Hypercube = Topology.Hypercube
module Trace = Simnet.Trace

(* Algorithm 2 on the binary cube is Rapid_cube with a fair coin deciding
   whether the Phase-1 redraw flips the coordinate. *)
let redraw_coin cube rng u j =
  if Prng.Stream.bool rng then Hypercube.flip cube u j else u

let run ?(eps = 0.5) ?(c = 2.0) ?(trace = Trace.null) ?(retry = Retry.fixed)
    ~rng cube =
  let n = Hypercube.node_count cube and d = Hypercube.dimension cube in
  Retry.sampling_with_retry ~retry ~c ~trace ~attempt_fn:(fun ~c ->
      Rapid_cube.run ~trace ~eps ~c ~rng ~n ~d ~redraw:(redraw_coin cube rng))

let run_plain ?(trace = Trace.null) ~k ~rng cube =
  Rapid_cube.run_plain ~trace ~k ~n:(Hypercube.node_count cube)
    ~d:(Hypercube.dimension cube) ~redraw:(redraw_coin cube rng)
