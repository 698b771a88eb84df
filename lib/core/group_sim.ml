type ('state, 'msg) protocol = {
  init : supernode:int -> rng:Prng.Stream.t -> 'state;
  step :
    supernode:int ->
    step_index:int ->
    'state ->
    inbox:(int * 'msg) list ->
    rng:Prng.Stream.t ->
    'state * (int * 'msg) list;
  steps : int;
  state_bits : 'state -> int;
  msg_bits : 'msg -> int;
}

(* Wire format.  A Proposal travels within a group during a simulation
   round; a Super bundle carries all of one supernode's messages for one
   destination supernode and travels between groups during a
   synchronization round.  [sent] is the network round the message was
   sent in: in the synchronous model a message that misses the next round
   (a delay fault) is lost, so receivers discard it ([fresh]).  The stamp
   is simulation bookkeeping and is not priced in [wire_bits]. *)
type ('state, 'msg) wire =
  | Proposal of { sent : int; state : 'state; out : (int * 'msg) list }
  | Super of { sent : int; src : int; msgs : 'msg list }

type phase = Sim | Sync

type ('state, 'msg) t = {
  protocol : ('state, 'msg) protocol;
  engine : ('state, 'msg) wire Simnet.Engine.t;
  trace : Simnet.Trace.t;
  n : int;
  group_of : int array;
  members : int array array;
  node_rng : Prng.Stream.t array;
  node_state : 'state option array;
  canonical : 'state option array;
  lost : bool array;
  mutable phase : phase;
  mutable step_index : int;
}

let wire_bits protocol ~id_bits = function
  | Proposal { state; out; _ } ->
      protocol.state_bits state
      + List.fold_left
          (fun acc (_, m) -> acc + protocol.msg_bits m + id_bits)
          Simnet.Msg_size.header_bits out
  | Super { msgs; _ } ->
      List.fold_left
        (fun acc m -> acc + protocol.msg_bits m)
        (Simnet.Msg_size.header_bits + id_bits)
        msgs

let create ?(trace = Simnet.Trace.null) ?faults ?domains:_ ~rng ~n ~group_of
    protocol =
  if Array.length group_of <> n then
    invalid_arg "Group_sim.create: group_of size mismatch";
  let supernodes = Array.fold_left (fun a x -> max a (x + 1)) 0 group_of in
  let vecs = Array.init supernodes (fun _ -> Topology.Intvec.create ()) in
  Array.iteri
    (fun v x ->
      if x < 0 then invalid_arg "Group_sim.create: negative supernode";
      Topology.Intvec.push vecs.(x) v)
    group_of;
  let members = Array.map Topology.Intvec.to_array vecs in
  Array.iteri
    (fun x m ->
      if Array.length m = 0 then
        invalid_arg (Printf.sprintf "Group_sim.create: empty group %d" x))
    members;
  let id_bits = Simnet.Msg_size.id_bits n in
  let engine =
    Simnet.Engine.create ~trace ?faults ~n
      ~msg_bits:(wire_bits protocol ~id_bits) ()
  in
  (* Every member starts in sync with the (per-supernode deterministic)
     initial state, as the paper assumes. *)
  let node_state = Array.make n None in
  let canonical = Array.make supernodes None in
  for x = 0 to supernodes - 1 do
    let st = protocol.init ~supernode:x ~rng:(Prng.Stream.split rng) in
    canonical.(x) <- Some st;
    Array.iter (fun v -> node_state.(v) <- Some st) members.(x)
  done;
  {
    protocol;
    engine;
    trace;
    n;
    group_of;
    members;
    node_rng = Prng.Stream.split_n rng n;
    node_state;
    canonical;
    lost = Array.make supernodes false;
    phase = Sim;
    step_index = 0;
  }

let supernode_count t = Array.length t.members
let network_rounds_total t = 2 * t.protocol.steps
let finished t = t.step_index >= t.protocol.steps
let lost_groups t =
  let out = ref [] in
  Array.iteri (fun x l -> if l then out := x :: !out) t.lost;
  List.rev !out

let state_of t x = if t.lost.(x) then None else t.canonical.(x)

let synced_members t x =
  Array.fold_left
    (fun acc v -> if t.node_state.(v) <> None then acc + 1 else acc)
    0 t.members.(x)

let metrics t = Simnet.Engine.metrics t.engine

(* Whether a message received in [round] was sent in the round before. *)
let fresh ~round = function
  | Proposal { sent; _ } | Super { sent; _ } -> sent = round - 1

(* Collapse the Super bundles a proposer received into the supernode-level
   inbox: all synced members of a source group send identical bundles, so
   keep the copy from the lowest-id physical sender per source supernode. *)
let supernode_inbox ~round inbox =
  let best = Hashtbl.create 8 in
  List.iter
    (fun (sender, w) ->
      match w with
      | Super { src; msgs; _ } when fresh ~round w -> (
          match Hashtbl.find_opt best src with
          | Some (s0, _) when s0 <= sender -> ()
          | _ -> Hashtbl.replace best src (sender, msgs))
      | Super _ | Proposal _ -> ())
    inbox;
  Hashtbl.fold
    (fun src (_, msgs) acc -> List.fold_left (fun a m -> (src, m) :: a) acc msgs)
    best []

let sim_round t ~blocked =
  Simnet.Engine.set_blocked t.engine (fun v -> blocked.(v));
  let proposed = Array.make (supernode_count t) false in
  Simnet.Engine.deliver_and_step t.engine (fun ~round ~me ~inbox ->
      match t.node_state.(me) with
      | None -> () (* out of sync: cannot simulate this step *)
      | Some st ->
          let x = t.group_of.(me) in
          let super_in = supernode_inbox ~round inbox in
          let st', out =
            t.protocol.step ~supernode:x ~step_index:t.step_index st
              ~inbox:super_in ~rng:t.node_rng.(me)
          in
          proposed.(x) <- true;
          (* The proposer's own copy becomes stale; like everyone else it
             adopts a proposal in the synchronization round. *)
          let wire = Proposal { sent = round; state = st'; out } in
          Array.iter
            (fun u -> Simnet.Engine.send t.engine ~src:me ~dst:u wire)
            t.members.(x));
  (* A group whose members were all blocked or out of sync this round has
     lost the supernode's state: nothing was proposed, so nothing can be
     adopted (Lemma 14's precondition failed). *)
  Array.iteri
    (fun x p -> if (not p) && not t.lost.(x) then t.lost.(x) <- true)
    proposed;
  if Simnet.Trace.enabled t.trace then begin
    let proposing = Array.fold_left (fun a p -> if p then a + 1 else a) 0 proposed in
    Simnet.Trace.emit t.trace
      (Simnet.Trace.Span
         {
           name = "groupsim/sim";
           rounds = 1;
           fields =
             [
               ("step_index", Simnet.Trace.Int t.step_index);
               ("proposing_groups", Simnet.Trace.Int proposing);
             ];
         })
  end;
  t.phase <- Sync

let sync_round t ~blocked =
  Simnet.Engine.set_blocked t.engine (fun v -> blocked.(v));
  (* Any member that receives proposals adopts the lowest-id one and
     becomes synced; members that receive none (blocked around the
     simulation round, or the group is lost) fall out of sync. *)
  let new_states = Array.make t.n None in
  let adopted = Array.make (supernode_count t) None in
  Simnet.Engine.deliver_and_step t.engine (fun ~round ~me ~inbox ->
      let winner = ref None in
      List.iter
        (fun (sender, w) ->
          match w with
          | Proposal { state; out; _ } when fresh ~round w -> (
              match !winner with
              | Some (s0, _, _) when s0 <= sender -> ()
              | _ -> winner := Some (sender, state, out))
          | Proposal _ | Super _ -> ())
        inbox;
      match !winner with
      | None -> ()
      | Some (_, st, out) ->
          let x = t.group_of.(me) in
          new_states.(me) <- Some st;
          if adopted.(x) = None then adopted.(x) <- Some st;
          (* Forward the supernode's outgoing messages: one bundle per
             destination supernode, sent to every member of its group. *)
          let per_dst = Hashtbl.create 8 in
          List.iter
            (fun (dst, m) ->
              Hashtbl.replace per_dst dst
                (m :: Option.value ~default:[] (Hashtbl.find_opt per_dst dst)))
            out;
          Hashtbl.iter
            (fun dst msgs ->
              if dst < 0 || dst >= supernode_count t then
                invalid_arg "Group_sim: protocol addressed unknown supernode";
              let bundle =
                Super { sent = round; src = x; msgs = List.rev msgs }
              in
              Array.iter
                (fun u -> Simnet.Engine.send t.engine ~src:me ~dst:u bundle)
                t.members.(dst))
            per_dst);
  Array.blit new_states 0 t.node_state 0 t.n;
  Array.iteri
    (fun x st -> match st with Some _ -> t.canonical.(x) <- st | None -> ())
    adopted;
  if Simnet.Trace.enabled t.trace then begin
    let adopting =
      Array.fold_left
        (fun a st -> match st with Some _ -> a + 1 | None -> a)
        0 adopted
    in
    Simnet.Trace.emit t.trace
      (Simnet.Trace.Span
         {
           name = "groupsim/sync";
           rounds = 1;
           fields =
             [
               ("step_index", Simnet.Trace.Int t.step_index);
               ("adopting_groups", Simnet.Trace.Int adopting);
             ];
         })
  end;
  t.phase <- Sim;
  t.step_index <- t.step_index + 1

let run_round t ~blocked =
  if finished t then invalid_arg "Group_sim.run_round: already finished";
  if Array.length blocked <> t.n then
    invalid_arg "Group_sim.run_round: blocked size mismatch";
  match t.phase with
  | Sim -> sim_round t ~blocked
  | Sync -> sync_round t ~blocked

let run_all t ~blocked_for_round =
  while not (finished t) do
    let round = Simnet.Engine.round t.engine in
    run_round t ~blocked:(blocked_for_round ~round)
  done
