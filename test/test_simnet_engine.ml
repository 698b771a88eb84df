(* Tests for the engine's round core (Simnet.Engine): inboxes arrive in
   send order, delivered message payloads are not retained by the
   engine's buffers, and the per-node delay and inbox planes at n = 2^20
   are allocated lazily. *)

let int_bits (_ : int) = 16

(* ---------- inbox order contract ---------- *)

let test_manual_sends_in_send_order () =
  (* Manual out-of-compute sends with descending and interleaved sources:
     the destination receives them exactly in send order. *)
  let eng = Simnet.Engine.create ~n:48 ~msg_bits:int_bits () in
  Simnet.Engine.send eng ~src:40 ~dst:0 1;
  Simnet.Engine.send eng ~src:5 ~dst:0 2;
  Simnet.Engine.send eng ~src:40 ~dst:0 3;
  Simnet.Engine.send eng ~src:6 ~dst:0 4;
  let got = ref [] in
  Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me ~inbox ->
      if me = 0 then got := inbox);
  Alcotest.(check (list (pair int int)))
    "send order"
    [ (40, 1); (5, 2); (40, 3); (6, 4) ]
    !got

(* ---------- payload retention ---------- *)

(* Plant a weakly-held payload in a fresh stack frame so no local binding
   keeps it alive after the send. *)
let[@inline never] plant eng w =
  let payload = Bytes.make 16 'x' in
  Weak.set w 0 (Some payload);
  Simnet.Engine.send eng ~src:0 ~dst:1 payload

let test_no_stale_retention () =
  let eng =
    Simnet.Engine.create ~metrics:false ~n:8 ~msg_bits:(fun (_ : bytes) -> 8) ()
  in
  let w = Weak.create 1 in
  plant eng w;
  (* Deliver it (without keeping a reference) and finish the round. *)
  Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me:_ ~inbox -> ignore inbox);
  Gc.full_major ();
  Alcotest.(check bool) "payload collected after delivery" true
    (Weak.get w 0 = None)

(* ---------- lazy allocation at scale ---------- *)

let test_million_node_create_is_lean () =
  (* A fault-free million-node engine must not eagerly allocate the
     per-node delay and inbox arrays (8 MB each at n = 2^20): creation
     stays under 4 MB of OCaml heap allocation. *)
  let n = 1 lsl 20 in
  let before = Gc.allocated_bytes () in
  let eng = Simnet.Engine.create ~metrics:false ~n ~msg_bits:int_bits () in
  let created = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "create allocates < 4MB (got %.0f)" created)
    true
    (created < 4.0 *. 1024.0 *. 1024.0);
  Alcotest.(check int) "engine sized" n (Simnet.Engine.n eng)

let () =
  Alcotest.run "simnet_engine"
    [
      ( "order",
        [
          Alcotest.test_case "manual sends arrive in send order" `Quick
            test_manual_sends_in_send_order;
        ] );
      ( "memory",
        [
          Alcotest.test_case "no stale retention (list)" `Quick
            test_no_stale_retention;
          Alcotest.test_case "million-node create is lean" `Quick
            test_million_node_create_is_lean;
        ] );
    ]
