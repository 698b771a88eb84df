(* Clocks, allocation counters and the order statistics the benchmark
   reports.  Everything here reads the process from outside the library:
   wall time, minor-heap words allocated on the calling domain, and the
   resident-set high-water mark. *)

let now () = Unix.gettimeofday ()

(* Words allocated on the minor heap of the calling domain.  Worker
   domains (the engine's shard workers) are not counted. *)
let words () = Gc.minor_words ()

(* VmHWM from /proc/self/status, in MiB: the process high-water mark,
   which includes Bigarray planes the GC does not see.  0 when the file
   is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* One timed layer: calls, busy seconds and minor words, all floats so the
   record is stored flat and updating it allocates nothing. *)
type acc = { mutable calls : float; mutable busy : float; mutable alloc : float }

let acc () = { calls = 0.0; busy = 0.0; alloc = 0.0 }

let time a f =
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = words () in
  a.calls <- a.calls +. 1.0;
  a.busy <- a.busy +. (t1 -. t0);
  a.alloc <- a.alloc +. (w1 -. w0);
  r

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with ten samples beyond it: the 11th largest
   sample.  Below 21 samples that would not lie above the median, so the
   maximum stands in. *)
let tail xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n > 20 then a.(n - 11) else a.(n - 1)

let ratio num den = if den = 0.0 then 0.0 else num /. den
