(** xoshiro256**: the main PRNG engine.  Fast, 256 bits of state, passes
    BigCrush; period 2^256 - 1.  Reference: Blackman & Vigna, "Scrambled
    linear pseudorandom number generators", ACM TOMS 2021. *)

type t
(** Mutable generator state. *)

val of_seed : int64 -> t
(** [of_seed s] expands the 64-bit seed [s] into a full 256-bit state using
    SplitMix64, as recommended by the xoshiro authors. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state a b c d] builds a generator from an explicit state.  At least
    one word must be non-zero. Raises [Invalid_argument] otherwise. *)

val copy : t -> t
(** Independent deep copy: the copy and the original produce the same
    subsequent stream but do not share state. *)

val next : t -> int64
(** Next 64 random bits. *)

(** {1 Immediate draws}

    Each consumes exactly one {!next} output per attempt and returns an
    immediate, so a draw allocates nothing. *)

val bounded : t -> int -> int
(** [bounded t b] is uniform on [0, b) for [b > 0] (unchecked): the top 63
    bits of an output modulo [b], redrawn while they fall in the final
    incomplete block of size [2^63 mod b]. *)

val coin : t -> bool
(** The lowest bit of one output. *)

val bits53 : t -> int
(** The top 53 bits of one output, as a nonnegative int. *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps.  Starting from a shared state and
    jumping k times yields 2^128-spaced, effectively independent streams. *)
