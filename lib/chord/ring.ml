type node = {
  idx : int;
  id : int;
  mutable pred : int;
  succs : int array;
  fingers : int array;
  mutable next_finger : int;
}

type t = {
  m : int;
  r : int;
  nf : int;
  mask : int;  (* 2^m - 1, validated once here for the hot paths *)
  salt : int64;
  nodes : node array;
  alive : bool array;
  sorted : int array;  (* node indices by ascending id *)
  pos : int array;  (* pos.(idx) = position of idx in sorted *)
}

let default_m n = max 8 ((2 * Simnet.Msg_size.id_bits n) + 2)
let default_succs n = max 2 (Simnet.Msg_size.id_bits n)

let create ?m ?fingers ?succs ~rng ~n () =
  if n < 2 then invalid_arg "Chord.Ring: n < 2";
  let m = Option.value m ~default:(default_m n) in
  if Id.space m < 2 * n then
    invalid_arg
      (Printf.sprintf "Chord.Ring: id space 2^%d too small for %d nodes" m n);
  let nf =
    match fingers with
    | None -> m
    | Some f -> if f < 1 then invalid_arg "Chord.Ring: fingers < 1" else min f m
  in
  let r =
    match succs with
    | None -> min (default_succs n) (n - 1)
    | Some r -> if r < 1 then invalid_arg "Chord.Ring: succs < 1" else min r (n - 1)
  in
  let salt = Prng.Stream.bits64 rng in
  let used = Hashtbl.create (2 * n) in
  let ids =
    Array.init n (fun idx ->
        let rec probe attempt =
          let id = Id.node_id ~m ~salt ~attempt idx in
          if Hashtbl.mem used id then probe (attempt + 1)
          else begin
            Hashtbl.add used id ();
            id
          end
        in
        probe 0)
  in
  let nodes =
    Array.init n (fun idx ->
        {
          idx;
          id = ids.(idx);
          pred = -1;
          succs = Array.make r (-1);
          fingers = Array.make nf (-1);
          next_finger = 0;
        })
  in
  let sorted = Array.init n Fun.id in
  Array.sort (fun a b -> compare ids.(a) ids.(b)) sorted;
  let pos = Array.make n 0 in
  Array.iteri (fun p idx -> pos.(idx) <- p) sorted;
  let mask = Id.mask m in
  { m; r; nf; mask; salt; nodes; alive = Array.make n true; sorted; pos }

let n t = Array.length t.nodes
let m t = t.m
let r t = t.r
let nf t = t.nf
let mask t = t.mask
let node t v = t.nodes.(v)
let nodes t = t.nodes
let id t v = t.nodes.(v).id
let key_id t key = Id.key_id ~m:t.m ~salt:t.salt key
let is_alive t v = t.alive.(v)
let set_alive t v b = t.alive.(v) <- b
let alive t = t.alive

let alive_count t =
  Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.alive

(* the first node (cyclically, starting at the binary-search insertion
   point for [target]) that satisfies [alive]; -1 if none *)
let owner_with t ~alive target =
  let len = Array.length t.sorted in
  (* smallest position with id >= target, len if none *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.nodes.(t.sorted.(mid)).id >= target then hi := mid else lo := mid + 1
  done;
  let p = ref (!lo mod len) and left = ref len in
  while !left > 0 && not alive.(t.sorted.(!p)) do
    p := (!p + 1) mod len;
    decr left
  done;
  if !left = 0 then -1 else t.sorted.(!p)

let oracle_owner t target = owner_with t ~alive:t.alive target

let oracle_next t v =
  let len = Array.length t.sorted in
  let rec scan p left =
    if left = 0 then -1
    else
      let w = t.sorted.(p) in
      if w <> v && t.alive.(w) then w else scan ((p + 1) mod len) (left - 1)
  in
  scan ((t.pos.(v) + 1) mod len) len

let holds t v ~key_id =
  t.alive.(v)
  &&
  let owner = oracle_owner t key_id in
  owner >= 0
  &&
  (* walk the first [r] live members from the owner *)
  let len = Array.length t.sorted in
  let p = ref t.pos.(owner) and left = ref len and copies = ref t.r in
  let found = ref false in
  while (not !found) && !copies > 0 && !left > 0 do
    let w = t.sorted.(!p) in
    if t.alive.(w) then begin
      if w = v then found := true else decr copies
    end;
    p := (!p + 1) mod len;
    decr left
  done;
  !found

let live_in_order t =
  let out = ref [] in
  for p = Array.length t.sorted - 1 downto 0 do
    let v = t.sorted.(p) in
    if t.alive.(v) then out := v :: !out
  done;
  Array.of_list !out

let reset_ideal t =
  let live = live_in_order t in
  let k = Array.length live in
  Array.iteri
    (fun j v ->
      let nd = t.nodes.(v) in
      for i = 0 to t.r - 1 do
        nd.succs.(i) <- (if i < k - 1 then live.((j + 1 + i) mod k) else -1)
      done;
      nd.pred <- (if k > 1 then live.((j + k - 1) mod k) else -1);
      for i = 0 to t.nf - 1 do
        nd.fingers.(i) <- oracle_owner t (Id.finger_start ~m:t.m nd.id i)
      done;
      nd.next_finger <- 0)
    live

let succ_ok_fraction t =
  let members = alive_count t in
  if members < 2 then 1.0
  else begin
    let ok = ref 0 in
    Array.iter
      (fun nd ->
        if t.alive.(nd.idx) && nd.succs.(0) = oracle_next t nd.idx then incr ok)
      t.nodes;
    float_of_int !ok /. float_of_int members
  end

let ring_connected t =
  let members = alive_count t in
  if members < 2 then true
  else begin
    let start =
      let rec first p = if t.alive.(t.sorted.(p)) then t.sorted.(p) else first (p + 1) in
      first 0
    in
    let visited = Array.make (n t) false in
    let rec walk v count =
      if visited.(v) then count = members
      else begin
        visited.(v) <- true;
        let nd = t.nodes.(v) in
        let rec next i =
          if i >= t.r then -1
          else
            let s = nd.succs.(i) in
            if s >= 0 && t.alive.(s) then s else next (i + 1)
        in
        match next 0 with -1 -> false | s -> walk s (count + 1)
      end
    in
    walk start 0
  end

let pick rng ~ok n =
  let start = Prng.Stream.int rng n in
  let rec scan d left =
    if left = 0 then None else if ok d then Some d else scan ((d + 1) mod n) (left - 1)
  in
  scan start n
