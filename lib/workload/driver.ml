include Plane.Overlay
include Plane.Report

type churn = { frac : float; epoch : int }

type config = {
  spec : Spec.t;
  churn : churn option;
  retries : int;
  plane : Plane.config;
}

let who = "Workload.Driver"

let config ?k ?mode ?period ?backend ?attack ?frac ?lateness ?staleness ?churn
    ?faults ?(retries = 0) ?domains spec =
  let plane =
    Plane.config ~who ?k ?mode ?period ?backend ?attack ?frac ?lateness
      ?staleness ?faults ?domains ()
  in
  if retries < 0 then invalid_arg "Workload.Driver: negative retries";
  (match churn with
  | None -> ()
  | Some { frac; epoch } ->
      if frac < 0.0 || frac >= 1.0 || not (Float.is_finite frac) then
        invalid_arg "Workload.Driver: churn frac outside [0, 1)";
      if epoch <= 0 then invalid_arg "Workload.Driver: churn epoch <= 0");
  { spec; churn; retries; plane }

let cls_index = function Gen.Read -> 0 | Gen.Write -> 1 | Gen.Publish -> 2

let payload_of req = Printf.sprintf "v%d.%d" req.Gen.client req.Gen.seq

(* The client workload as a plane policy: an open-loop schedule or
   closed-loop clients with think time, one uniform budget, and one DHT
   verb per attempt. *)
module Policy = struct
  type req = Gen.request

  type t = {
    plan : Plane.plan;
    think : int option;  (** closed loop: idle rounds between requests *)
    schedule : Gen.request array;  (** open loop *)
    pos : int ref;
    streams : Prng.Stream.t array;  (** closed loop, per client *)
    next_issue : int array;
    next_seq : int array;
    outstanding : bool array;
  }

  let plan t = t.plan
  let cls (req : req) = cls_index req.op
  let arrival (req : req) = req.arrival
  let client (req : req) = req.client

  let admit t ~round issue =
    match t.think with
    | None -> Plane.admit_due t.schedule t.pos ~arrival ~round issue
    | Some _ ->
        for c = 0 to Array.length t.streams - 1 do
          if (not t.outstanding.(c)) && t.next_issue.(c) <= round then begin
            let op, key = Gen.draw_request t.plan.spec t.streams.(c) in
            let seq = t.next_seq.(c) in
            issue { Gen.client = c; seq; arrival = round; op; key };
            t.next_seq.(c) <- t.next_seq.(c) + 1;
            t.outstanding.(c) <- true
          end
        done

  let execute (type b) _ (module B : Backend_intf.S with type t = b) (b : b)
      ~entry (req : req) =
    let res, base_ops =
      match req.op with
      | Gen.Read -> (B.get b ~entry req.key, 1)
      | Gen.Write -> (B.put b ~entry req.key (payload_of req), 1)
      | Gen.Publish ->
          (* topic = key + 1: composite (topic, seq) then never collides
             with the plain key space the reads/writes use *)
          (B.publish b ~entry ~topic:(req.key + 1) (payload_of req), 3)
    in
    if res.Backend_intf.ok then
      Plane.Served
        {
          service = base_ops + res.Backend_intf.hops + res.Backend_intf.waits;
          hops = res.Backend_intf.hops;
        }
    else Plane.Failed { hops = res.Backend_intf.hops }

  let finished t (req : req) ~ready =
    match t.think with
    | Some think ->
        t.outstanding.(req.client) <- false;
        t.next_issue.(req.client) <- ready + think
    | None -> ()

  let on_churn _ _ ~round:_ ~down:_ = ()

  let create ~seed (cfg : config) =
    let spec = cfg.spec in
    let think =
      match spec.Spec.arrivals with
      | Spec.Closed_loop { think } -> Some think
      | Spec.Open_loop _ -> None
    in
    let budget =
      { Plane.slo = spec.Spec.slo; timeout = spec.Spec.timeout;
        retries = cfg.retries }
    in
    let clients = spec.Spec.clients in
    {
      plan =
        {
          Plane.who;
          spec;
          hot_keys = None;
          backend_retries = cfg.retries;
          class_names =
            Array.map Gen.class_name [| Gen.Read; Gen.Write; Gen.Publish |];
          budgets = Array.make 3 budget;
          churn = Option.map (fun c -> (c.frac, c.epoch)) cfg.churn;
          run_note = "workload/run";
          run_fields =
            [
              ("clients", Simnet.Trace.Int clients);
              ("rounds", Simnet.Trace.Int spec.Spec.rounds);
              ( "arrivals",
                Simnet.Trace.String (Spec.arrivals_to_string spec.Spec.arrivals)
              );
              ("mix", Simnet.Trace.String (Spec.mix_to_string spec.Spec.mix));
            ];
          health_note = None;
        };
      think;
      schedule =
        (match think with
        | Some _ -> [||]
        | None -> Gen.open_schedule ?domains:cfg.plane.domains ~spec ~seed ());
      pos = ref 0;
      streams =
        (match think with
        | None -> [||]
        | Some _ ->
            Array.init clients (fun client -> Gen.client_stream ~seed ~client));
      next_issue = Array.make clients 0;
      next_seq = Array.make clients 0;
      outstanding = Array.make clients false;
    }
end

let run_backend backend ?trace ~seed ~n (cfg : config) =
  Plane.run backend
    (module Policy)
    (Policy.create ~seed cfg) ?trace ~seed ~n cfg.plane

let run ?trace ~seed ~n (cfg : config) =
  run_backend (Plane.backend_module cfg.plane) ?trace ~seed ~n cfg
