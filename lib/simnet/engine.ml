type losses = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crash_lost : int;
  subset_lost : int;
}

(* ---------- staging buffer and counting-sort merge ----------

   A send appends to one staging buffer: three parallel planes (srcs,
   dsts, msgs) with a fill pointer, grown by doubling and reused across
   rounds.  The int planes are Bigarrays — unboxed and outside the
   scanned heap; the msgs plane is an [Obj.t array] so one immediate
   dummy ([Obj.repr 0]) serves every message type (a polymorphic ['msg]
   dummy would tempt the compiler into flat float arrays) and clearing a
   consumed slot is a plain fill, so no round retains message payloads it
   already delivered.

   Delivery merges the buffer with a counting sort: count per-destination
   arrivals, prefix-sum into offsets, then scatter into one contiguous
   (srcs, msgs) run.  A node's inbox is the run [offs.(d) .. offs.(d+1)).
   The scatter walks the buffer in push order, so every inbox is in send
   order. *)

type iplane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let iplane len : iplane =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max len 1)

let obj_nil : Obj.t = Obj.repr 0

type 'msg t = {
  n : int;
  msg_bits : 'msg -> int;
  (* staging buffer; its capacity is [Array.length st_msgs] *)
  mutable st_srcs : iplane;
  mutable st_dsts : iplane;
  mutable st_msgs : Obj.t array;
  mutable st_len : int;
  (* merge planes: per-dst arrival counts (reused as scatter cursors),
     n + 1 prefix offsets, and the merged arrivals grouped by destination
     (capacity [Array.length m_msgs]) *)
  counts : iplane;
  offs : iplane;
  mutable m_srcs : iplane;
  mutable m_msgs : Obj.t array;
  mutable round : int;
  mutable blocked : int -> bool;
  (* Messages held back by a delay fault, keyed by destination:
     (due_round, src, msg), newest first.  [[||]] until the first delay
     fault fires, so fault-free million-node runs never pay n empty
     lists. *)
  mutable delayed : (int * int * 'msg) list array;
  (* Reusable inbox-list cells; [[||]] until the first delivery. *)
  mutable inboxes : (int * 'msg) list array;
  (* Destinations whose [inboxes] cell was set this round, so the
     post-compute clear touches exactly those. *)
  mutable touched : int array;
  mutable touched_len : int;
  (* Whether any [send] was attempted this round; a [set_blocked] after that
     point would mis-apply the blocking rule to already-queued messages. *)
  mutable sent_this_round : bool;
  faults : Faults.t option;
  mutable lost_dropped : int;
  mutable lost_duplicated : int;
  mutable lost_delayed : int;
  mutable lost_crash : int;
  mutable lost_subset : int;
  metrics : Metrics.t option;
  trace : Trace.t;
}

let nobody_blocked _ = false

let create ?(metrics = true) ?(trace = Trace.null) ?faults ~n ~msg_bits () =
  if n <= 0 then invalid_arg "Engine.create: n <= 0";
  let faults =
    match faults with
    | Some plan when not (Faults.is_none plan) -> Some (Faults.install plan ~n)
    | _ -> None
  in
  {
    n;
    msg_bits;
    st_srcs = iplane 0;
    st_dsts = iplane 0;
    st_msgs = [||];
    st_len = 0;
    counts = iplane n;
    offs = iplane (n + 1);
    m_srcs = iplane 0;
    m_msgs = [||];
    round = 0;
    blocked = nobody_blocked;
    delayed = [||];
    inboxes = [||];
    touched = [||];
    touched_len = 0;
    sent_this_round = false;
    faults;
    lost_dropped = 0;
    lost_duplicated = 0;
    lost_delayed = 0;
    lost_crash = 0;
    lost_subset = 0;
    metrics = (if metrics then Some (Metrics.create ~n) else None);
    trace;
  }

let n t = t.n
let round t = t.round

let losses t =
  {
    dropped = t.lost_dropped;
    duplicated = t.lost_duplicated;
    delayed = t.lost_delayed;
    crash_lost = t.lost_crash;
    subset_lost = t.lost_subset;
  }

let fault_plan t = Option.map Faults.plan t.faults

let is_crashed t v =
  match t.faults with Some f -> Faults.crashed f v | None -> false

let set_blocked t f =
  if t.sent_this_round then
    invalid_arg "Engine.set_blocked: called after sends in this round";
  t.blocked <- f

let is_blocked t v = t.blocked v

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg ("Engine." ^ name ^ ": node out of range")

let grow_staging t =
  let len = t.st_len in
  let cap' = max 64 (2 * Array.length t.st_msgs) in
  let srcs' = iplane cap' and dsts' = iplane cap' in
  if len > 0 then begin
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.st_srcs 0 len)
      (Bigarray.Array1.sub srcs' 0 len);
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.st_dsts 0 len)
      (Bigarray.Array1.sub dsts' 0 len)
  end;
  let msgs' = Array.make cap' obj_nil in
  Array.blit t.st_msgs 0 msgs' 0 len;
  t.st_srcs <- srcs';
  t.st_dsts <- dsts';
  t.st_msgs <- msgs'

let send t ~src ~dst msg =
  check_node t src "send";
  check_node t dst "send";
  t.sent_this_round <- true;
  if is_crashed t src || is_crashed t dst then
    (* A crashed endpoint behaves like a permanently blocked one, except the
       loss is observable in [losses]. *)
    t.lost_crash <- t.lost_crash + 1
  else if
    (* Send-time half of the blocking rule: src non-blocked in the send round
       and dst non-blocked in the send round. *)
    not (t.blocked src) && not (t.blocked dst)
  then begin
    (match t.metrics with
    | Some m -> Metrics.on_send m ~node:src ~bits:(t.msg_bits msg)
    | None -> ());
    let len = t.st_len in
    if len = Array.length t.st_msgs then grow_staging t;
    Bigarray.Array1.unsafe_set t.st_srcs len src;
    Bigarray.Array1.unsafe_set t.st_dsts len dst;
    Array.unsafe_set t.st_msgs len (Obj.repr msg);
    t.st_len <- len + 1
  end

(* ---------- merge phase ---------- *)

(* Counting-sort the staging buffer into the merge planes and empty it,
   clearing its payload refs behind us. *)
let merge t =
  let counts = t.counts and offs = t.offs and len = t.st_len in
  let dsts = t.st_dsts in
  Bigarray.Array1.fill counts 0;
  for i = 0 to len - 1 do
    let d = Bigarray.Array1.unsafe_get dsts i in
    Bigarray.Array1.unsafe_set counts d (Bigarray.Array1.unsafe_get counts d + 1)
  done;
  let acc = ref 0 in
  for d = 0 to t.n - 1 do
    Bigarray.Array1.unsafe_set offs d !acc;
    acc := !acc + Bigarray.Array1.unsafe_get counts d
  done;
  Bigarray.Array1.unsafe_set offs t.n !acc;
  (* counts become the scatter cursors *)
  Bigarray.Array1.blit (Bigarray.Array1.sub offs 0 t.n) counts;
  if len > Array.length t.m_msgs then begin
    let cap' = max 1024 (max len (2 * Array.length t.m_msgs)) in
    t.m_srcs <- iplane cap';
    t.m_msgs <- Array.make cap' obj_nil
  end;
  let m_srcs = t.m_srcs and m_msgs = t.m_msgs in
  let srcs = t.st_srcs and msgs = t.st_msgs in
  for i = 0 to len - 1 do
    let d = Bigarray.Array1.unsafe_get dsts i in
    let pos = Bigarray.Array1.unsafe_get counts d in
    Bigarray.Array1.unsafe_set counts d (pos + 1);
    Bigarray.Array1.unsafe_set m_srcs pos (Bigarray.Array1.unsafe_get srcs i);
    Array.unsafe_set m_msgs pos (Array.unsafe_get msgs i)
  done;
  Array.fill msgs 0 len obj_nil;
  t.st_len <- 0

(* ---------- delivery ---------- *)

let ensure_delayed t =
  if Array.length t.delayed = 0 then t.delayed <- Array.make t.n []

let touch t dst =
  if t.touched_len = Array.length t.touched then begin
    let cap' = max 64 (2 * t.touched_len) in
    let touched' = Array.make cap' 0 in
    Array.blit t.touched 0 touched' 0 t.touched_len;
    t.touched <- touched'
  end;
  t.touched.(t.touched_len) <- dst;
  t.touched_len <- t.touched_len + 1

(* The merged run [lo, hi) as an oldest-first [(src, msg)] list. *)
let run_to_list t lo hi : (int * _) list =
  let m_srcs = t.m_srcs and m_msgs = t.m_msgs in
  let acc = ref [] in
  for i = hi - 1 downto lo do
    acc :=
      (Bigarray.Array1.unsafe_get m_srcs i, Obj.obj (Array.unsafe_get m_msgs i))
      :: !acc
  done;
  !acc

(* Apply per-message fault rolls to an inbox (oldest first), returning the
   surviving messages in order.  Rolls are drawn in arrival order so the
   fault stream's consumption is a pure function of the traffic. *)
let apply_message_faults t f ~dst inbox =
  let traced = Trace.enabled t.trace in
  let out = ref [] in
  List.iter
    (fun (src, msg) ->
      if Faults.roll_drop f then begin
        t.lost_dropped <- t.lost_dropped + 1;
        if traced then
          Trace.emit t.trace
            (Trace.Fault
               {
                 kind = "drop";
                 round = t.round;
                 fields = [ ("src", Trace.Int src); ("dst", Trace.Int dst) ];
               })
      end
      else
        let hold = Faults.roll_delay f in
        if hold > 0 then begin
          let due = t.round + hold in
          t.lost_delayed <- t.lost_delayed + 1;
          ensure_delayed t;
          t.delayed.(dst) <- (due, src, msg) :: t.delayed.(dst);
          if traced then
            Trace.emit t.trace
              (Trace.Fault
                 {
                   kind = "delay";
                   round = t.round;
                   fields =
                     [
                       ("src", Trace.Int src);
                       ("dst", Trace.Int dst);
                       ("until", Trace.Int due);
                     ];
                 })
        end
        else if Faults.roll_duplicate f then begin
          t.lost_duplicated <- t.lost_duplicated + 1;
          out := (src, msg) :: (src, msg) :: !out;
          if traced then
            Trace.emit t.trace
              (Trace.Fault
                 {
                   kind = "duplicate";
                   round = t.round;
                   fields = [ ("src", Trace.Int src); ("dst", Trace.Int dst) ];
                 })
        end
        else out := (src, msg) :: !out)
    inbox;
  List.rev !out

let apply_reorder t f ~dst inbox =
  match inbox with
  | [] | [ _ ] -> inbox
  | _ ->
      let arr = Array.of_list inbox in
      if Faults.roll_reorder f arr then begin
        if Trace.enabled t.trace then
          Trace.emit t.trace
            (Trace.Fault
               {
                 kind = "reorder";
                 round = t.round;
                 fields =
                   [
                     ("dst", Trace.Int dst);
                     ("msgs", Trace.Int (Array.length arr));
                   ];
               });
        Array.to_list arr
      end
      else inbox

let tick_faults t =
  (* Crash/recover transitions fire at the round boundary, before this
     round's deliveries. *)
  match t.faults with
  | None -> ()
  | Some f ->
      let transitions = Faults.tick f ~round:t.round in
      if Trace.enabled t.trace then
        List.iter
          (fun (node, kind) ->
            Trace.emit t.trace
              (Trace.Fault
                 {
                   kind = (match kind with `Crash -> "crash" | `Recover -> "recover");
                   round = t.round;
                   fields = [ ("node", Trace.Int node) ];
                 }))
          transitions

(* Merge last round's sends and fill [t.inboxes]: per destination, in
   ascending order so the fault stream is consumed in a fixed order,
   apply crash / blocked / subset accounting, matured delays, fault rolls
   and metrics.  [computes dst] says whether dst runs its compute step
   this round; if not, the inbox content is lost (and counted). *)
let deliver t computes =
  tick_faults t;
  merge t;
  if Array.length t.inboxes = 0 then t.inboxes <- Array.make t.n [];
  let subset_lost_now = ref 0 in
  let have_delayed = Array.length t.delayed > 0 in
  for dst = 0 to t.n - 1 do
    let lo = Bigarray.Array1.unsafe_get t.offs dst in
    let hi = Bigarray.Array1.unsafe_get t.offs (dst + 1) in
    let queued_len = hi - lo in
    (* Messages whose delay expired this round re-enter ahead of fresh
       traffic; they already passed their fault rolls when first delayed. *)
    let matured =
      if not have_delayed then []
      else
        let held = t.delayed.(dst) in
        if held = [] then []
        else begin
          let due, still =
            List.partition (fun (due, _, _) -> due <= t.round) held
          in
          t.delayed.(dst) <- still;
          List.rev_map (fun (_, src, msg) -> (src, msg)) due
        end
    in
    if queued_len > 0 || matured <> [] then begin
      if is_crashed t dst then
        t.lost_crash <- t.lost_crash + queued_len + List.length matured
      else if t.blocked dst then
        (* Lost per the Section 1.1 blocking rule; not a fault, not counted. *)
        ()
      else if not (computes dst) then begin
        let k = queued_len + List.length matured in
        t.lost_subset <- t.lost_subset + k;
        subset_lost_now := !subset_lost_now + k
      end
      else begin
        let fresh = run_to_list t lo hi in
        let inbox =
          match t.faults with
          | None -> fresh
          | Some f ->
              apply_reorder t f ~dst
                (matured @ apply_message_faults t f ~dst fresh)
        in
        (match t.metrics with
        | Some m ->
            List.iter
              (fun (_, msg) -> Metrics.on_recv m ~node:dst ~bits:(t.msg_bits msg))
              inbox
        | None -> ());
        t.inboxes.(dst) <- inbox;
        touch t dst
      end
    end
  done;
  if !subset_lost_now > 0 && Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Note
         {
           name = "engine/subset_lost";
           fields =
             [
               ("round", Trace.Int t.round);
               ("msgs", Trace.Int !subset_lost_now);
             ];
         });
  (* Inbox lists hold their own (src, msg) cells; drop the merged planes'
     payload refs now so the round retains nothing it delivered. *)
  Array.fill t.m_msgs 0 (Bigarray.Array1.unsafe_get t.offs t.n) obj_nil

(* Reset the inbox cells set this round, after compute consumed them. *)
let clear_inboxes t =
  for i = 0 to t.touched_len - 1 do
    t.inboxes.(t.touched.(i)) <- []
  done;
  t.touched_len <- 0

let end_round t =
  let summary =
    match t.metrics with Some m -> Some (Metrics.finish_round m) | None -> None
  in
  if Trace.enabled t.trace then begin
    let blocked = ref 0 in
    for v = 0 to t.n - 1 do
      if t.blocked v then incr blocked
    done;
    let ev =
      match summary with
      | Some s -> Trace.round_of_summary ~blocked:!blocked s
      | None ->
          Trace.Round
            {
              round = t.round;
              msgs = 0;
              bits = 0;
              max_node_bits = 0;
              max_node_msgs = 0;
              blocked = !blocked;
            }
    in
    Trace.emit t.trace ev
  end;
  t.round <- t.round + 1;
  t.blocked <- nobody_blocked;
  t.sent_this_round <- false

let deliver_and_step t f =
  deliver t (fun _ -> true);
  let r = t.round in
  let inboxes = t.inboxes in
  for v = 0 to t.n - 1 do
    if not (t.blocked v) && not (is_crashed t v) then
      f ~round:r ~me:v ~inbox:inboxes.(v)
  done;
  clear_inboxes t;
  end_round t

let deliver_and_step_subset t ~nodes f =
  let member = Array.make t.n false in
  Array.iter
    (fun v ->
      check_node t v "deliver_and_step_subset";
      member.(v) <- true)
    nodes;
  deliver t (fun v -> member.(v));
  let r = t.round in
  let inboxes = t.inboxes in
  Array.iter
    (fun v ->
      if not (t.blocked v) && not (is_crashed t v) then
        f ~round:r ~me:v ~inbox:inboxes.(v))
    nodes;
  clear_inboxes t;
  end_round t

let metrics t =
  match t.metrics with
  | Some m -> m
  | None -> invalid_arg "Engine.metrics: metrics disabled"
