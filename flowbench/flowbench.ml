(* The flow benchmark.

     flowbench --workload NAME --seed N --seconds S --trace 0|1
     flowbench --smoke BENCHMARK.json

   Untraced runs time whole [Flow.run] calls in a closed loop (one fresh
   netlist per flow) and print the end-to-end metrics; traced runs time
   each layer through Replay and print the per-layer metrics.  Every flow
   is checked by the oracle below, and the last stdout line is the result
   object: {"correct", "attempted", "failed", "metrics"}. *)

module Flow = Smt_core.Flow
module Library = Smt_cell.Library
module Drc = Smt_check.Drc
module Verify = Smt_verify.Verify
module Rules = Smt_verify.Rules
module Par = Smt_obs.Par
module Stats = Smt_util.Stats
module Json = Smt_obs.Obs_json
module W = Workload

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs = Stats.percentile xs 50.0

(* --- oracle --------------------------------------------------------- *)

(* Everything known about one finished flow; [errors] empty means it
   passed. *)
type checked = { design : W.design; qor : W.qor option; mutable errors : string list }

let fail c msg = c.errors <- msg :: c.errors

type oracle = { w : W.t; seed : int; first : (string, W.qor) Hashtbl.t }

let oracle w ~seed = { w; seed; first = Hashtbl.create 7 }

(* The flow's product must be structurally sound and sleep correctly,
   whatever guard the flow itself ran under. *)
let product_errors nl =
  (if Drc.has_errors (Drc.check nl) then [ "final netlist has DRC errors" ] else [])
  @
  if Rules.has_errors (Verify.analyze nl).Verify.findings then
    [ "final netlist has standby lint errors" ]
  else []

(* Pinned QoR at the default seed; on any seed, every flow of a design
   must reproduce the run's first result for it bit for bit. *)
let check_qor o c q =
  let name = c.design.W.d_name in
  (if o.seed = W.default_seed then
     match List.assoc_opt name o.w.W.pins with
     | Some p when not (W.qor_equal p q) ->
       fail c
         (Printf.sprintf "QoR %s differs from pinned %s" (W.qor_to_string q)
            (W.qor_to_string p))
     | _ -> ());
  match Hashtbl.find_opt o.first name with
  | None -> Hashtbl.add o.first name q
  | Some q0 when not (W.qor_equal q0 q) ->
    fail c (Printf.sprintf "QoR %s differs from this run's first %s" (W.qor_to_string q)
              (W.qor_to_string q0))
  | Some _ -> ()

(* Table 1: the improved flow beats the conventional one in area and
   standby on each circuit of the sweep. *)
let check_table1 o checked =
  if o.w.W.table1_shape then begin
    let find name = List.find_opt (fun c -> c.design.W.d_name = name) checked in
    List.iter
      (fun circuit ->
        match (find (circuit ^ "/improved"), find (circuit ^ "/conventional")) with
        | Some ({ qor = Some i; _ } as c), Some { qor = Some v; _ } ->
          if not (i.W.area < v.W.area && i.W.standby < v.W.standby) then
            fail c (circuit ^ ": improved does not beat conventional (Table-1 shape)")
        | Some c, _ -> fail c (circuit ^ ": Table-1 shape not checkable")
        | None, _ -> ())
      [ "circuit_a"; "circuit_b" ]
  end

(* --- the measured loop ---------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  raw : (string * float * string) list;  (** the times before calibration *)
  samples : (string * int) list;
  messages : string list;
}

(* Fresh inputs for one iteration, generated [reps] times (the last copy
   is kept), timing each: the library plus generation and composition of
   every design.  Each design gets its own library: [Library.switch]
   memoizes new footer sizes into the library's table, so flows running
   on parallel domains must not share one.  A full major collection runs
   before and after, so each flow starts from a similar heap. *)
let setup ?(reps = 1) w ~seed =
  let rec generate k times =
    Gc.compact ();
    let t0 = now () in
    let inputs = List.map (fun d -> (d, d.W.d_gen (Library.default ()))) (w.W.designs ~seed) in
    let times = (now () -. t0) :: times in
    if k > 1 then generate (k - 1) times else (inputs, times)
  in
  let inputs, times = generate reps [] in
  Gc.compact ();
  (inputs, times)

(* Run [iteration] until the next one would overrun [seconds]; at least
   once. *)
let loop ~seconds iteration =
  let start = now () in
  let rec go durations =
    let t0 = now () in
    iteration ();
    let durations = (now () -. t0) :: durations in
    if now () -. start +. median durations <= seconds then go durations
  in
  go []

let summarize checked =
  let failed = List.filter (fun c -> c.errors <> []) checked in
  ( List.length checked,
    List.length failed,
    List.concat_map
      (fun c -> List.map (fun e -> c.design.W.d_name ^ ": " ^ e) (List.rev c.errors))
      failed )

(* The largest major heap seen at any stage boundary of the flows it
   watches.  [Gc.quick_stat]'s [top_heap_words] cannot serve: under
   OCaml 5 it also moves as worker domains come and go. *)
let heap_watch () =
  let peak = Atomic.make 0 in
  let rec sample () =
    let h = (Gc.quick_stat ()).Gc.heap_words and p = Atomic.get peak in
    if h > p && not (Atomic.compare_and_set peak p h) then sample ()
  in
  (peak, fun (_ : string) -> sample ())

(* One flow of an untraced iteration, as its process reports it. *)
type flow_out = {
  f_name : string;
  f_qor : (W.qor, string) Stdlib.result;  (** [Error]: the flow raised *)
  f_product : string list;  (** [product_errors] of the final netlist *)
  f_wall : float;  (** seconds, calibration samples taken out *)
}

type iteration = {
  setups : float list;  (** seconds of each set-up repetition *)
  flows : flow_out list;
  cpu_per_flow : float;  (** process CPU seconds / flows *)
  heap_mb : float;  (** peak major heap at the flows' stage boundaries *)
  busy : float;  (** median set-up + the flows' wall-clock, seconds *)
  kernel : float list;  (** this iteration's calibration samples *)
}

(* One untraced iteration; it runs in a process of its own (Isolate).
   The kernel is timed before and after it and, when the flows run one
   at a time, at every stage boundary too, so the calibration sees the
   host as the flow saw it; the time those samples take is taken out of
   the flow's wall-clock and CPU time. *)
let iteration w ~seed =
  let calib = Calib.create () in
  Calib.sample ~k:3 calib;
  let inputs, setups = setup ~reps:3 w ~seed in
  let peak, watch_heap = heap_watch () in
  let paused = ref 0.0 and paused_cpu = ref 0.0 in
  let on_stage =
    if w.W.jobs > 1 then watch_heap
    else fun stage ->
      watch_heap stage;
      let t = now () and c = cpu () in
      Calib.sample ~k:1 calib;
      paused := !paused +. (now () -. t);
      paused_cpu := !paused_cpu +. (cpu () -. c)
  in
  let options = { (W.options w ~seed) with Flow.on_stage = Some on_stage } in
  let c0 = cpu () and t0 = now () in
  let runs =
    Par.map ~jobs:w.W.jobs
      (fun (d, nl) ->
        let t = now () and p = !paused in
        let r =
          try Ok (Flow.run ~options d.W.d_technique nl) with e -> Error (Printexc.to_string e)
        in
        (d, nl, r, now () -. t -. (!paused -. p)))
      inputs
  in
  let wall = now () -. t0 -. !paused and cpu_s = cpu () -. c0 -. !paused_cpu in
  let flows =
    List.map
      (fun (d, nl, r, dt) ->
        {
          f_name = d.W.d_name;
          f_qor = Result.map W.qor_of_report r;
          f_product = (if Result.is_ok r then product_errors nl else []);
          f_wall = dt;
        })
      runs
  in
  Calib.sample ~k:3 calib;
  {
    setups;
    flows;
    cpu_per_flow = cpu_s /. float_of_int (List.length runs);
    heap_mb = float_of_int (Atomic.get peak * (Sys.word_size / 8)) /. 1e6;
    busy = median setups +. wall;
    kernel = calib.Calib.samples;
  }

(* The end-to-end times of [its], each iteration's scaled by [scale]. *)
let times its ~scale =
  let scaled f = List.concat_map (fun it -> List.map (fun x -> x *. scale it) (f it)) its in
  let walls = scaled (fun it -> List.map (fun f -> f.f_wall) it.flows) in
  let busy = List.fold_left ( +. ) 0.0 (scaled (fun it -> [ it.busy ])) in
  [
    ("flow_s", median walls, "s");
    ("flow_cpu_s", median (scaled (fun it -> [ it.cpu_per_flow ])), "s");
    ("setup_s", median (scaled (fun it -> it.setups)), "s");
    ("flow_s_p90", Stats.percentile walls 90.0, "s");
    ("flows_per_s", float_of_int (List.length walls) /. busy, "1/s");
  ]

let untraced w ~seed ~seconds =
  let o = oracle w ~seed in
  (* build the kernel's data once, before the first child is forked *)
  ignore (Calib.create ());
  let its = ref [] and checked = ref [] in
  loop ~seconds (fun () ->
      let designs = w.W.designs ~seed in
      let these =
        match Isolate.run (fun () -> iteration w ~seed) with
        | Error e -> List.map (fun d -> { design = d; qor = None; errors = [ e ] }) designs
        | Ok it ->
          its := it :: !its;
          List.map
            (fun f ->
              let design = List.find (fun d -> d.W.d_name = f.f_name) designs in
              match f.f_qor with
              | Error e -> { design; qor = None; errors = [ "flow raised " ^ e ] }
              | Ok q ->
                let c = { design; qor = Some q; errors = List.rev f.f_product } in
                check_qor o c q;
                c)
            it.flows
      in
      check_table1 o these;
      checked := these @ !checked);
  let attempted, failed, messages = summarize !checked in
  let its = List.rev !its in
  if its = [] then failwith (String.concat "; " ("no iteration finished" :: messages));
  let kernel = List.concat_map (fun it -> it.kernel) its in
  let raw = times its ~scale:(fun _ -> 1.0) in
  {
    attempted;
    failed;
    messages;
    metrics =
      times its ~scale:(fun it -> Calib.reference_s /. median it.kernel)
      @ [
          ("peak_heap_mb", median (List.map (fun it -> it.heap_mb) its), "MB");
          ("pass_rate", 1.0 -. (float_of_int failed /. float_of_int attempted), "ratio");
        ];
    raw = raw @ [ ("calib.kernel_s", median kernel, "s") ];
    samples =
      [
        ("flow_s", List.length (List.concat_map (fun it -> it.flows) its));
        ("flow_cpu_s", List.length its);
        ("setup_s", List.length (List.concat_map (fun it -> it.setups) its));
        ("peak_heap_mb", List.length its);
        ("calib.kernel_s", List.length kernel);
      ];
  }

(* Library counters reported per flow (per sweep on table1-sweep). *)
let reported_counters =
  [
    "place.moves"; "sta.analyses"; "sta.arrival_evals"; "sta.incremental_updates";
    "cluster.clusters_formed"; "cluster.refine_moves"; "eco.hold_iterations";
    "eco.hold_buffers_added"; "reopt.switches_resized"; "lint.transfers"; "lint.updates";
  ]

let sum f l = List.fold_left (fun s x -> s +. f x) 0.0 l
let sum_wall = sum (fun r -> r.Replay.wall_s)

let traced w ~seed ~seconds =
  let o = oracle w ~seed in
  let options = W.options w ~seed in
  let rows = ref [] and checked = ref [] and drift = ref 0 in
  let calib = Calib.start () in
  loop ~seconds (fun () ->
      let for_replay, _ = setup w ~seed in
      let for_reference, _ = setup w ~seed in
      let tr = Replay.tracer () in
      let try_run f (d, nl) = try Ok (f d nl) with e -> Error (Printexc.to_string e) in
      let replays =
        List.map
          (try_run (fun d nl -> Replay.replay tr ~options d.W.d_technique nl))
          for_replay
      in
      let references =
        List.map (try_run (fun d nl -> Replay.reference ~options d.W.d_technique nl))
          for_reference
      in
      (* The same flows fanned out at the workload's job count; at one
         job that is the reference pass itself. *)
      let par, par_wall =
        if w.W.jobs = 1 then (references, sum_wall (List.filter_map Result.to_option references))
        else begin
          let inputs, _ = setup w ~seed in
          let t0 = now () in
          let par =
            Par.map ~jobs:w.W.jobs
              (try_run (fun d nl -> Replay.reference ~options d.W.d_technique nl))
              inputs
          in
          (par, now () -. t0)
        end
      in
      let these =
        List.map2
          (fun (((d, nl), ref_), par) rep ->
            let qor = Result.to_option (Result.map (fun r -> r.Replay.qor) ref_) in
            let c = { design = d; qor; errors = [] } in
            (match (rep, ref_, par) with
            | Ok rep, Ok ref_, Ok par ->
              check_qor o c ref_.Replay.qor;
              List.iter (fail c) (product_errors nl);
              List.iter (fail c) rep.Replay.guard_errors;
              let dr = Replay.drift rep ref_ in
              drift := !drift + dr;
              if dr > 0 then fail c (Printf.sprintf "replay drifts from Flow.run (%d)" dr);
              if not (W.qor_equal par.Replay.qor ref_.Replay.qor) then
                fail c (Printf.sprintf "QoR at %d jobs differs from 1 job" w.W.jobs)
            | Error e, _, _ -> fail c ("replay raised " ^ e)
            | _, Error e, _ | _, _, Error e -> fail c ("flow raised " ^ e));
            c)
          (List.combine (List.combine for_reference references) par)
          replays
      in
      check_table1 o these;
      checked := these @ !checked;
      let ok = List.filter_map Result.to_option in
      let replays = ok replays and references = ok references in
      let replay_wall = sum_wall replays in
      let counter n =
        sum (fun r -> float_of_int (Option.value (List.assoc_opt n r.Replay.counters) ~default:0))
          replays
      in
      let busy = sum_wall (ok par) in
      let row =
        List.concat_map
          (fun (l, a) ->
            [
              (l ^ ".ms", a.Replay.ms, "ms");
              (l ^ ".calls", float_of_int a.Replay.calls, "count");
              (l ^ ".alloc_mw", a.Replay.alloc_w /. 1e6, "Mw");
            ])
          tr.Replay.acc
        @ List.map (fun n -> (n, counter n, "count")) reported_counters
        @ [
            ("sta.update_evals", sum (fun r -> r.Replay.update_evals) replays, "count");
            ("geom.mst_points_max", float_of_int tr.Replay.mst_points_max, "count");
            ("geom.mst_points_sq", float_of_int tr.Replay.mst_points_sq, "count");
            ("activity.gate_evals", float_of_int tr.Replay.gate_evals, "count");
            ("vth_assign.swapped", float_of_int tr.Replay.swapped, "count");
            ("par.efficiency", busy /. (par_wall *. float_of_int w.W.jobs), "ratio");
            ("replay.coverage", Replay.spanned_ms tr /. (replay_wall *. 1000.0), "ratio");
            ( "obs.trace_overhead_frac",
              (replay_wall /. sum_wall references) -. 1.0,
              "ratio" );
          ]
      in
      rows := row :: !rows;
      Calib.maybe_sample calib);
  Calib.sample calib;
  let attempted, failed, messages = summarize !checked in
  let k = Calib.scale calib in
  let value name row = List.find_map (fun (n, v, _) -> if n = name then Some v else None) row in
  let metrics =
    List.map
      (fun (name, _, unit) -> (name, median (List.filter_map (value name) !rows), unit))
      (List.hd !rows)
  in
  let calibrated (n, v, u) = (n, (if u = "ms" then v *. k else v), u) in
  {
    attempted;
    failed;
    messages;
    metrics =
      List.map calibrated metrics
      @ [
          ("replay.drift", float_of_int !drift, "count");
          ("calib.kernel_ms", Calib.kernel_s calib *. 1000.0, "ms");
        ];
    raw = [];
    samples =
      [ ("iterations", List.length !rows); ("calib.kernel_ms", List.length calib.Calib.samples) ];
  }

let run w ~seed ~seconds ~trace = (if trace then traced else untraced) w ~seed ~seconds

let correct r = r.failed = 0

let result_json r =
  Json.obj
    [
      ("correct", Json.boolean (correct r));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun (n, v, u) ->
               (n, Json.obj [ ("value", Json.num_exact v); ("unit", Json.str u) ]))
             r.metrics) );
    ]

let print_result w ~seed r =
  Printf.printf "workload %s seed %d: %d flows attempted, %d failed\n" w.W.name seed
    r.attempted r.failed;
  List.iter (fun m -> Printf.printf "  FAIL %s\n" m) r.messages;
  List.iter (fun (n, k) -> Printf.printf "  samples %-24s %d\n" n k) r.samples;
  List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.6g %s\n" n v u) r.metrics;
  List.iter (fun (n, v, u) -> Printf.printf "  raw %-28s %14.6g %s\n" n v u) r.raw;
  print_endline (result_json r)

(* --- smoke: the benchmark's own test -------------------------------- *)

let spec_names spec key =
  match Json.member key spec with
  | Some (Json.Arr ms) ->
    List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_str) ms
  | _ -> failwith ("spec has no " ^ key)

let smoke spec_file =
  let spec =
    match Json.of_file spec_file with Ok j -> j | Error e -> failwith (spec_file ^ ": " ^ e)
  in
  let problems = ref [] in
  let expect cond msg = if not cond then problems := msg :: !problems in
  let seed = W.default_seed in
  let check w ~trace =
    let r = run w ~seed ~seconds:0.0 ~trace in
    print_result w ~seed r;
    let tag = Printf.sprintf "%s (trace %b)" w.W.name trace in
    expect (correct r) (tag ^ ": oracle failed");
    let emitted = List.map (fun (n, _, _) -> n) r.metrics in
    let named = spec_names spec (if trace then "per_layer" else "end_to_end") in
    List.iter
      (fun n -> expect (List.mem n emitted) (tag ^ ": metric " ^ n ^ " not emitted"))
      named;
    List.iter
      (fun n -> expect (List.mem n named) (tag ^ ": metric " ^ n ^ " not in the spec"))
      emitted;
    if trace then
      expect
        (List.exists (fun (n, v, _) -> n = "replay.drift" && v = 0.0) r.metrics)
        (tag ^ ": replay drifts")
  in
  (* Untraced runs first: they fork, which OCaml 5.1 refuses once a
     traced run has spawned a domain in this process. *)
  List.iter (check ~trace:false) W.smoke;
  (* A pin moved by one ulp must be caught. *)
  let w = Option.get (W.find ~smoke:true "table1-sweep") in
  let perturbed =
    List.map
      (fun (n, q) -> (n, if n = "circuit_a/improved" then { q with W.area = Float.succ q.W.area } else q))
      w.W.pins
  in
  let r = run { w with W.pins = perturbed } ~seed ~seconds:0.0 ~trace:false in
  expect (r.failed > 0 && not (correct r)) "perturbed pin was not detected";
  List.iter (check ~trace:true) W.smoke;
  let names = List.map (fun w -> w.W.name) W.full in
  List.iter
    (fun n -> expect (List.mem n names) ("spec names unknown workload " ^ n))
    (spec_names spec "workloads");
  match !problems with
  | [] -> print_endline "flowbench smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("flowbench smoke: " ^ p)) (List.rev ps);
    exit 1

(* --- command line ------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 40.0 in
  let trace = ref 0 and smoke_spec = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1, the pinned one)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set_string smoke_spec, "SPEC run the shrunk self-test against SPEC");
    ]
  in
  let usage = "flowbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_spec <> "" then smoke !smoke_spec
  else
    match W.find ~smoke:false !workload with
    | None ->
      Printf.eprintf "flowbench: unknown workload %S (%s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.W.name) W.full));
      exit 2
    | Some w ->
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "flowbench: --trace takes 0 or 1";
        exit 2
      end;
      print_result w ~seed:!seed (run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
