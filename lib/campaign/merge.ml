module Snapshot = Smt_obs.Snapshot
module Ledger = Smt_obs.Ledger

type state = Sdone | Sfailed of string | Smissing

type job_state = {
  js_job : Job.t;
  js_state : state;
  js_attempt : int;
  js_duration_s : float;
}

type t = {
  mg_tag : string;
  mg_snapshot : Snapshot.t;
  mg_workloads : Ledger.workload list;
  mg_states : job_state list;
  mg_done : int;
  mg_failed : int;
  mg_missing : int;
  mg_unreadable : int;
}

(* Wall-clock is the one worker-recorded field that differs run to run;
   everything else in a workload is a deterministic function of the job. *)
let strip_wallclock (w : Snapshot.workload) =
  Snapshot.workload ~name:w.Snapshot.w_name ~qor:w.Snapshot.w_qor
    ~counters:w.Snapshot.w_counters ~stage_ms:[]

let of_dir dir =
  match Manifest.load dir with
  | Error e -> Error (Printf.sprintf "cannot load campaign manifest: %s" e)
  | Ok man -> (
    match Checkpoint.scan dir with
    | Error e -> Error (Printf.sprintf "cannot scan checkpoints: %s" e)
    | Ok { Checkpoint.sc_checkpoints; sc_unreadable } ->
      let states =
        List.map
          (fun job ->
            match List.assoc_opt (Job.id job) sc_checkpoints with
            | Some (cp : Checkpoint.t) -> (
              match cp.Checkpoint.cp_status with
              | Checkpoint.Done ->
                {
                  js_job = job;
                  js_state = Sdone;
                  js_attempt = cp.Checkpoint.cp_attempt;
                  js_duration_s = cp.Checkpoint.cp_duration_s;
                }
              | Checkpoint.Failed e ->
                {
                  js_job = job;
                  js_state = Sfailed e;
                  js_attempt = cp.Checkpoint.cp_attempt;
                  js_duration_s = cp.Checkpoint.cp_duration_s;
                })
            | None ->
              { js_job = job; js_state = Smissing; js_attempt = 0; js_duration_s = 0. })
          (Manifest.jobs man)
      in
      let done_checkpoints =
        List.filter_map
          (fun js ->
            match js.js_state with
            | Sdone -> (
              match List.assoc_opt (Job.id js.js_job) sc_checkpoints with
              | Some ({ Checkpoint.cp_workload = Some _; _ } as cp) -> Some cp
              | _ -> None)
            | _ -> None)
          states
      in
      let done_workloads =
        List.filter_map
          (fun cp -> Option.map strip_wallclock cp.Checkpoint.cp_workload)
          done_checkpoints
      in
      (* Ledger form keeps what the snapshot strips: per-stage wall-clock
         and the worker's GC attribution are exactly what [runs show] and
         [runs gc] read back.  Sorted like the snapshot so ledger records
         are independent of scan order. *)
      let ledger_workloads =
        List.filter_map
          (fun cp ->
            Option.map
              (fun w ->
                { Ledger.lw_workload = w; Ledger.lw_prof = cp.Checkpoint.cp_prof })
              cp.Checkpoint.cp_workload)
          done_checkpoints
        |> List.sort (fun a b ->
               compare a.Ledger.lw_workload.Snapshot.w_name
                 b.Ledger.lw_workload.Snapshot.w_name)
      in
      let count p = List.length (List.filter p states) in
      Ok
        {
          mg_tag = man.Manifest.m_tag;
          mg_snapshot = Snapshot.make ~tag:man.Manifest.m_tag done_workloads;
          mg_workloads = ledger_workloads;
          mg_states = states;
          mg_done = count (fun js -> js.js_state = Sdone);
          mg_failed =
            count (fun js -> match js.js_state with Sfailed _ -> true | _ -> false);
          mg_missing = count (fun js -> js.js_state = Smissing);
          mg_unreadable = sc_unreadable;
        })

let complete m = m.mg_failed = 0 && m.mg_missing = 0

let workloads m = m.mg_workloads
