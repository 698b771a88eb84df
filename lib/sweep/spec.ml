type t = {
  name : string;
  run : string;
  base : Simnet.Scenario.t;
  axes : Grid.axis list;
  vars : string list;
}

(* Everything from '#' to end of line is a comment; comments are
   stripped before segment splitting so they work in both spec files and
   one-line spec strings. *)
let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let segments text =
  String.split_on_char '\n' text
  |> List.concat_map (fun line -> String.split_on_char ';' (strip_comment line))
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

(* Split on the FIRST '=' only: axis values like [faults=drop=0.05]
   keep their nested '='s intact. *)
let split_eq seg =
  match String.index_opt seg '=' with
  | None ->
      Error (Printf.sprintf "sweep spec: segment %S is not KEY=VALUE" seg)
  | Some i ->
      Ok
        ( String.trim (String.sub seg 0 i),
          String.trim (String.sub seg (i + 1) (String.length seg - i - 1)) )

let axis_values key raw =
  let vs =
    String.split_on_char '|' raw |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if vs = [] then
    Error (Printf.sprintf "sweep spec: axis %S has no values" key)
  else Ok vs

let prefixed ~prefix seg =
  if String.starts_with ~prefix seg then
    Some
      (String.trim
         (String.sub seg (String.length prefix)
            (String.length seg - String.length prefix)))
  else None

let parse text =
  let rec go name run base_kvs axes vars = function
    | [] -> (
        match Simnet.Scenario.of_args (List.rev base_kvs) with
        | Error e -> Error e
        | Ok base ->
            Ok
              {
                name = Option.value name ~default:"sweep";
                run = Option.value run ~default:"sample";
                base;
                axes = List.rev axes;
                vars = List.rev vars;
              })
    | seg :: rest -> (
        match prefixed ~prefix:"axis:" seg with
        | Some body ->
            Result.bind (split_eq body) (fun (key, raw) ->
                Result.bind (axis_values key raw) (fun vs ->
                    go name run base_kvs
                      (Grid.scenario_key key vs :: axes)
                      vars rest))
        | None -> (
            match prefixed ~prefix:"var:" seg with
            | Some body ->
                Result.bind (split_eq body) (fun (key, raw) ->
                    Result.bind (axis_values key raw) (fun vs ->
                        go name run base_kvs (Grid.strings key vs :: axes)
                          (key :: vars) rest))
            | None ->
                Result.bind (split_eq seg) (fun (key, value) ->
                    match key with
                    | "sweep" -> go (Some value) run base_kvs axes vars rest
                    | "run" -> go name (Some value) base_kvs axes vars rest
                    | _ ->
                        go name run ((key, value) :: base_kvs) axes vars rest)))
  in
  go None None [] [] [] (segments text)

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse text
  | exception Sys_error e -> Error (Printf.sprintf "sweep spec: %s" e)

let cells t = Grid.expand ~base:t.base ~sweep:t.name t.axes
