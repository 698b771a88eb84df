(* The 256-bit state lives in 32 bytes, words s0..s3 at offsets 0, 8, 16,
   24.  Reading and writing them through the unboxed bytes primitives keeps
   every int64 of a step in registers: mutable int64 record fields would box
   on each store.  The state never leaves this module, so native byte order
   is fine. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  make s0 s1 s2 s3

let of_seed seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 outputs are never all zero for any seed in practice, but the
     invariant is cheap to enforce. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_state 1L 0L 0L 0L
  else make s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] step t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let next t = step t

(* Draw 63 nonnegative bits and reject the final incomplete block of size
   2^63 mod bound: exactly uniform.  The loop stays in this module so the
   draw never leaves a register. *)
let bounded t bound =
  let b = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.sub b 1L) in
  let out = ref (-1) in
  while !out < 0 do
    let r = Int64.shift_right_logical (step t) 1 in
    let v = Int64.rem r b in
    if Int64.sub r v <= limit then out := Int64.to_int v
  done;
  !out

let coin t = Int64.logand (step t) 1L = 1L

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let jump_constants = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
                        0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun c ->
      for b = 0 to 63 do
        if Int64.(logand c (shift_left 1L b)) <> 0L then
          for w = 0 to 3 do
            set acc (8 * w) (Int64.logxor (get acc (8 * w)) (get t (8 * w)))
          done;
        ignore (step t)
      done)
    jump_constants;
  Bytes.blit acc 0 t 0 32
