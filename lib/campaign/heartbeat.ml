(* Liveness, not durability: a worker touches <job-id>.hb every few
   hundred milliseconds with its current flow stage and a monotonic beat
   counter, and the supervisor reads the file to tell a *hung* shard (no
   beat advancing) from a merely *slow* one (beats advancing through a
   long stage).  Writes are temp + rename — atomic so a reader never
   sees a torn line — but deliberately not fsynced: a lost heartbeat
   costs nothing, while an fsync every 200 ms per shard would.  The
   beater runs on its own domain so a worker wedged in a compute loop
   (the exact failure stall detection exists for) stops beating even
   though the process is alive. *)

module J = Smt_obs.Obs_json

type t = { hb_stage : string; hb_stages_done : int; hb_beat : int }

let suffix = ".hb"
let path ~dir id = Filename.concat dir (id ^ suffix)

let default_interval_ms = 200.

let interval_s () =
  match Sys.getenv_opt "SMT_HB_INTERVAL_MS" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some ms when ms > 0. -> ms /. 1000.
    | _ -> default_interval_ms /. 1000.)
  | None -> default_interval_ms /. 1000.

let to_json t =
  J.obj
    [
      ("stage", J.str t.hb_stage);
      ("stages_done", string_of_int t.hb_stages_done);
      ("beat", string_of_int t.hb_beat);
    ]

let of_json doc =
  match
    ( Option.bind (J.member "stage" doc) J.to_str,
      Option.bind (J.member "stages_done" doc) J.to_num,
      Option.bind (J.member "beat" doc) J.to_num )
  with
  | Some stage, Some stages, Some beat ->
    Ok { hb_stage = stage; hb_stages_done = int_of_float stages; hb_beat = int_of_float beat }
  | _ -> Error "heartbeat: missing stage/stages_done/beat"

let write path t = Smt_util.Atomic_file.write ~fsync:false path (to_json t ^ "\n")

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match J.parse (String.trim contents) with
    | Error e -> Error e
    | Ok doc -> of_json doc)

(* ------------------------------------------------------------------ *)
(* Beater                                                              *)
(* ------------------------------------------------------------------ *)

type beater = {
  bt_path : string;
  bt_stage : string Atomic.t;
  bt_stages : int Atomic.t;
  bt_stop : bool Atomic.t;
  bt_domain : unit Domain.t;
}

let start ~path =
  let stage = Atomic.make "start" in
  let stages = Atomic.make 0 in
  let stop = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        let beat = ref 0 in
        let tick () =
          incr beat;
          (* Best-effort by design: a full disk or vanished directory must
             not take the worker down with it. *)
          try
            write path
              {
                hb_stage = Atomic.get stage;
                hb_stages_done = Atomic.get stages;
                hb_beat = !beat;
              }
          with Sys_error _ | Unix.Unix_error _ -> ()
        in
        tick ();
        while not (Atomic.get stop) do
          (* Sleep in short slices so [stop] never waits out a long
             interval. *)
          let remaining = ref (interval_s ()) in
          while !remaining > 0. && not (Atomic.get stop) do
            let slice = Float.min 0.05 !remaining in
            Unix.sleepf slice;
            remaining := !remaining -. slice
          done;
          if not (Atomic.get stop) then tick ()
        done;
        tick ())
  in
  { bt_path = path; bt_stage = stage; bt_stages = stages; bt_stop = stop; bt_domain = domain }

let set_stage b name =
  Atomic.set b.bt_stage name;
  Atomic.incr b.bt_stages

let stop b =
  if not (Atomic.get b.bt_stop) then begin
    Atomic.set b.bt_stop true;
    Domain.join b.bt_domain
  end
