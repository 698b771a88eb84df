module Kary = Topology.Kary_hypercube

(* Algorithm 2 on the k-ary cube is Rapid_cube with a uniform digit as the
   Phase-1 redraw. *)
let redraw_digit cube rng u j =
  Kary.with_coord cube u j (Prng.Stream.int rng (Kary.k cube))

let run ?(eps = 0.5) ?(c = 2.0) ~rng cube =
  Rapid_cube.run ~trace:Simnet.Trace.null ~eps ~c ~rng ~n:(Kary.node_count cube)
    ~d:(Kary.d cube) ~redraw:(redraw_digit cube rng)

let run_plain ~k ~rng cube =
  Rapid_cube.run_plain ~trace:Simnet.Trace.null ~k ~n:(Kary.node_count cube)
    ~d:(Kary.d cube) ~redraw:(redraw_digit cube rng)
