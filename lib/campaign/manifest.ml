module J = Smt_obs.Obs_json

let schema_version = 1

type t = {
  m_version : int;
  m_tag : string;
  m_circuits : string list;
  m_techniques : string list;
  m_guards : string list;
  m_seeds : int list;
}

let make ~tag ~circuits ~techniques ~guards ~seeds =
  {
    m_version = schema_version;
    m_tag = tag;
    m_circuits = circuits;
    m_techniques = techniques;
    m_guards = guards;
    m_seeds = seeds;
  }

let jobs m =
  Job.matrix ~circuits:m.m_circuits ~techniques:m.m_techniques ~guards:m.m_guards
    ~seeds:m.m_seeds

(* The slot table is what keeps absorbed telemetry stable: a job's index
   in the canonical matrix depends only on the manifest, so the tid its
   spans land on survives retries, resumes, and shard-count changes. *)
let slots m = List.mapi (fun i job -> (Job.id job, i)) (jobs m)

let path dir = Filename.concat dir "campaign.json"

let to_json m =
  J.obj
    [
      ("schema_version", string_of_int m.m_version);
      ("tag", J.str m.m_tag);
      ("circuits", J.arr (List.map J.str m.m_circuits));
      ("techniques", J.arr (List.map J.str m.m_techniques));
      ("guards", J.arr (List.map J.str m.m_guards));
      ("seeds", J.arr (List.map string_of_int m.m_seeds));
    ]

let write dir m = Smt_util.Atomic_file.write ~fsync:true (path dir) (to_json m ^ "\n")

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let str_list field doc =
  match J.member field doc with
  | Some (J.Arr items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | J.Str s :: rest -> go (s :: acc) rest
      | _ -> Error (Printf.sprintf "manifest: %S holds a non-string" field)
    in
    go [] items
  | Some _ -> Error (Printf.sprintf "manifest: %S is not an array" field)
  | None -> Error (Printf.sprintf "manifest: missing field %S" field)

let load dir =
  let file = path dir in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match J.parse (String.trim contents) with
    | Error e -> Error e
    | Ok doc ->
      let* version =
        match J.member "schema_version" doc with
        | Some v -> (
          match J.to_num v with
          | Some f -> Ok (int_of_float f)
          | None -> Error "manifest: schema_version is not a number")
        | None -> Error "manifest: missing field \"schema_version\""
      in
      if version <> schema_version then
        Error
          (Printf.sprintf "manifest: schema version %d, expected %d" version
             schema_version)
      else
        let* tag =
          match J.member "tag" doc with
          | Some (J.Str s) -> Ok s
          | _ -> Error "manifest: missing or non-string \"tag\""
        in
        let* circuits = str_list "circuits" doc in
        let* techniques = str_list "techniques" doc in
        let* guards = str_list "guards" doc in
        let* seeds =
          match J.member "seeds" doc with
          | Some (J.Arr items) ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | it :: rest -> (
                match J.to_num it with
                | Some f -> go (int_of_float f :: acc) rest
                | None -> Error "manifest: \"seeds\" holds a non-number")
            in
            go [] items
          | Some _ -> Error "manifest: \"seeds\" is not an array"
          | None -> Error "manifest: missing field \"seeds\""
        in
        Ok
          {
            m_version = version;
            m_tag = tag;
            m_circuits = circuits;
            m_techniques = techniques;
            m_guards = guards;
            m_seeds = seeds;
          })
