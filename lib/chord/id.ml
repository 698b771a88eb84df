let max_bits = 61

let check_m m =
  if m < 1 || m > max_bits then
    invalid_arg (Printf.sprintf "Chord.Id: m must be in [1, %d]" max_bits)

let space m =
  check_m m;
  1 lsl m

let mask m = space m - 1

(* distinct odd tags keep node and key hashes statistically independent *)
let node_tag = 0x9e3779b97f4a7c15L
let key_tag = 0xbf58476d1ce4e5b9L

let of_mix ~m x = Int64.to_int (Int64.logand x (Int64.of_int (mask m)))

let node_id ~m ~salt ?(attempt = 0) idx =
  of_mix ~m
    (Prng.Splitmix64.mix
       (Int64.add (Int64.logxor salt node_tag)
          (Int64.logor (Int64.of_int idx)
             (Int64.shift_left (Int64.of_int attempt) 32))))

let key_id ~m ~salt key =
  of_mix ~m
    (Prng.Splitmix64.mix (Int64.add (Int64.logxor salt key_tag) (Int64.of_int key)))

let in_oc a b x = if a = b then true else if a < b then a < x && x <= b else x > a || x <= b

let in_oo a b x =
  if a = b then x <> a else if a < b then a < x && x < b else x > a || x < b

let dist ~m a b = (b - a) land mask m

let finger_start ~m id i =
  if i < 0 || i >= m then invalid_arg "Chord.Id.finger_start: index outside [0, m)";
  (id + (1 lsl i)) land mask m
