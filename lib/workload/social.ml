type config = { app : Apps.Social.config; plane : Plane.config }

let who = "Workload.Social"

let config ?k ?mode ?period ?backend ?attack ?frac ?lateness ?staleness ?faults
    ?domains app =
  {
    app;
    plane =
      Plane.config ~who ?k ?mode ?period ?backend ?attack ?frac ?lateness
        ?staleness ?faults ?domains ();
  }

type report = Plane.report

let cls_index = function
  | Apps.Social.Feed -> 0
  | Apps.Social.Post -> 1
  | Apps.Social.Comment -> 2
  | Apps.Social.Vote -> 3
  | Apps.Social.Dm -> 4

let payload_of (req : Apps.Social.request) =
  Printf.sprintf "u%d.%d" req.Apps.Social.user req.Apps.Social.seq

let mix_to_string (m : Apps.Social.mix) =
  String.concat ","
    (List.map2
       (fun name w -> Printf.sprintf "%s=%s" name (Stats.Float_text.repr w))
       [ "feed"; "post"; "comment"; "vote"; "dm" ]
       [ m.Apps.Social.feed; m.post; m.comment; m.vote; m.dm ])

(* The social application as a plane policy: the session-aware open
   schedule, per-class budgets, an operation chain per attempt, session
   churn, and the [social/*] notes. *)
module Policy = struct
  type req = Apps.Social.request

  type t = {
    plan : Plane.plan;
    app : Apps.Social.config;
    offline : bool array array;
    schedule : Apps.Social.request array;
    pos : int ref;
  }

  let plan t = t.plan
  let cls (req : req) = cls_index req.cls
  let arrival (req : req) = req.arrival
  let client (req : req) = req.user

  let admit t ~round issue =
    Plane.admit_due t.schedule t.pos ~arrival ~round issue

  let execute (type b) _ (module B : Backend_intf.S with type t = b) (b : b)
      ~entry (req : req) =
    let payload = payload_of req in
    (* the whole chain must succeed within this attempt; a post's repost
       fan-out rides in the same chain *)
    let rec exec ops ~service ~hops =
      match ops with
      | [] -> Plane.Served { service; hops }
      | op :: rest ->
          let res =
            match op with
            | Apps.Social.Probe topic -> B.last_seq b ~entry ~topic
            | Apps.Social.Publish topic -> B.publish b ~entry ~topic payload
            | Apps.Social.Store key -> B.put b ~entry key payload
          in
          let hops = hops + res.Backend_intf.hops in
          if res.Backend_intf.ok then
            exec rest
              ~service:
                (service + Apps.Social.base_ops op + res.Backend_intf.hops
               + res.Backend_intf.waits)
              ~hops
          else Plane.Failed { hops }
    in
    exec req.ops ~service:0 ~hops:0

  let finished _ _ ~ready:_ = ()

  (* the offline users already issue nothing (schedule generation); the
     same session cycle churns the servers, and the note counts both *)
  let on_churn t rt ~round ~down =
    match t.app.Apps.Social.session with
    | None -> ()
    | Some (_, epoch) ->
        let e = round / epoch in
        let off_users =
          if e < Array.length t.offline then
            Array.fold_left (fun a o -> if o then a + 1 else a) 0 t.offline.(e)
          else 0
        in
        Simnet.Runtime.note rt ~name:"social/session"
          [
            ("round", Simnet.Trace.Int round);
            ("epoch", Simnet.Trace.Int e);
            ("offline_users", Simnet.Trace.Int off_users);
            ("down_servers", Simnet.Trace.Int down);
          ]

  let create ~seed (cfg : config) =
    let app = cfg.app in
    let budget c =
      let b = Apps.Social.budget c in
      {
        Plane.slo = b.Apps.Social.slo;
        timeout = b.timeout;
        retries = b.retries;
      }
    in
    let budgets = Array.of_list (List.map budget Apps.Social.classes) in
    {
      plan =
        {
          Plane.who;
          spec =
            Spec.make ~clients:app.Apps.Social.users
              ~rounds:app.Apps.Social.rounds ~keys:app.Apps.Social.topics
              ~arrivals:(Spec.Open_loop { rate = app.Apps.Social.rate })
              ~popularity:(Spec.Zipf app.Apps.Social.zipf) ();
          (* the adversary targets the application's real hot spots: the
             subreddit publication counters, hottest first *)
          hot_keys = Some (Apps.Social.hot_keys app);
          (* the chord backend's internal lookup-retry policy gets the
             most patient class's budget *)
          backend_retries =
            Array.fold_left (fun a (b : Plane.budget) -> max a b.retries) 0
              budgets;
          class_names =
            Array.of_list (List.map Apps.Social.class_name Apps.Social.classes);
          budgets;
          churn =
            Option.map
              (fun (online, epoch) -> (1.0 -. online, epoch))
              app.Apps.Social.session;
          run_note = "social/run";
          run_fields =
            [
              ("users", Simnet.Trace.Int app.Apps.Social.users);
              ("topics", Simnet.Trace.Int app.Apps.Social.topics);
              ("rounds", Simnet.Trace.Int app.Apps.Social.rounds);
              ("fanout", Simnet.Trace.Int app.Apps.Social.fanout);
              ("rate", Simnet.Trace.Float app.Apps.Social.rate);
              ("mix", Simnet.Trace.String (mix_to_string app.Apps.Social.mix));
              ( "session",
                Simnet.Trace.String
                  (match app.Apps.Social.session with
                  | None -> "-"
                  | Some (online, epoch) ->
                      Printf.sprintf "%s:%d" (Stats.Float_text.repr online)
                        epoch) );
            ];
          health_note = Some "social/health";
        };
      app;
      offline = Apps.Social.offline app ~seed;
      schedule = Apps.Social.schedule ?domains:cfg.plane.domains app ~seed;
      pos = ref 0;
    }
end

let run ?trace ~seed ~n (cfg : config) =
  Plane.run
    (Plane.backend_module cfg.plane)
    (module Policy)
    (Policy.create ~seed cfg) ?trace ~seed ~n cfg.plane

let table_lines = Plane.table_lines
