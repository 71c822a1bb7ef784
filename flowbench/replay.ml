(* The traced replay: [Flow.run_with_artifacts]'s sequence re-driven from
   outside through each layer's public function, every call wrapped in a
   bench-owned span that records its wall-clock time, its GC allocation
   and a call count.  The library is not instrumented for this; the
   replay's final QoR and Metrics counter deltas are checked against a
   real [Flow.run] on the same input, so a flow that changes its sequence
   shows up as drift instead of as silently wrong attribution.

   Spans do not nest: each wraps exactly one layer call, so a span's
   duration is its self time. *)

module Flow = Smt_core.Flow
module Cluster = Smt_core.Cluster
module Vth_assign = Smt_core.Vth_assign
module Mt_replace = Smt_core.Mt_replace
module Switch_insert = Smt_core.Switch_insert
module Mte = Smt_core.Mte
module Reopt = Smt_core.Reopt
module Eco = Smt_core.Eco
module Netlist = Smt_netlist.Netlist
module Nl_stats = Smt_netlist.Nl_stats
module Placement = Smt_place.Placement
module Parasitics = Smt_route.Parasitics
module Cts = Smt_cts.Cts
module Sta = Smt_sta.Sta
module Leakage = Smt_power.Leakage
module Bounce = Smt_power.Bounce
module Activity = Smt_sim.Activity
module Library = Smt_cell.Library
module Tech = Smt_cell.Tech
module Cell = Smt_cell.Cell
module Vth = Smt_cell.Vth
module Drc = Smt_check.Drc
module Violation = Smt_check.Violation
module Verify = Smt_verify.Verify
module Rules = Smt_verify.Rules
module Metrics = Smt_obs.Metrics

let layers =
  [
    "place"; "route"; "sta.analyze"; "sta.measure"; "vth_assign"; "mt_replace";
    "switch_insert"; "geom.mst"; "bounce"; "activity"; "cluster"; "cts"; "mte"; "reopt";
    "eco"; "check"; "verify";
  ]

type layer = { mutable ms : float; mutable calls : int; mutable alloc_w : float }

(* Per-layer totals plus the work counts no library counter provides. *)
type tracer = {
  acc : (string * layer) list;
  mutable mst_points_max : int;
  mutable mst_points_sq : int;
  mutable gate_evals : int;
  mutable swapped : int;
}

let tracer () =
  {
    acc = List.map (fun l -> (l, { ms = 0.0; calls = 0; alloc_w = 0.0 })) layers;
    mst_points_max = 0;
    mst_points_sq = 0;
    gate_evals = 0;
    swapped = 0;
  }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span tr name f =
  let l = List.assoc name tr.acc in
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  l.ms <- l.ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
  l.alloc_w <- l.alloc_w +. (allocated_words () -. w0);
  l.calls <- l.calls + 1;
  r

let spanned_ms tr = List.fold_left (fun s (_, l) -> s +. l.ms) 0.0 tr.acc

(* Counters [Flow.run] bumps itself (run/stage bookkeeping and the
   guard's dedup accounting); the replay calls the layers, not
   [Flow.run], so these are excluded from the drift comparison. *)
let flow_counters =
  [
    "flow.runs"; "flow.stages"; "flow.degraded"; "check.violations"; "check.repairs";
    "lint.findings"; "lint.dedup";
  ]

let layer_counters () =
  List.filter (fun (n, _) -> not (List.mem n flow_counters)) (Metrics.counters ())

let update_evals_sum () =
  Option.value (List.assoc_opt "sta.update_evals.sum" (Metrics.snapshot ())) ~default:0.0

type outcome = {
  qor : Workload.qor;
  guard_errors : string list;  (** what the strict guard would have raised *)
  counters : (string * int) list;  (** layer-counter deltas, nonzero only *)
  update_evals : float;
  wall_s : float;
}

(* Run [f] and package its QoR and guard errors with what it cost: the
   layer-counter deltas, the update-evals sum and the wall-clock. *)
let observed f =
  let c0 = layer_counters () in
  let u0 = update_evals_sum () in
  let t0 = Unix.gettimeofday () in
  let qor, guard_errors = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    qor;
    guard_errors;
    counters = Smt_core.Qor.counter_delta ~before:c0 ~after:(layer_counters ());
    update_evals = update_evals_sum () -. u0;
    wall_s;
  }

(* Flow.connect_embedded_mte, which the flow does not export. *)
let connect_embedded_mte nl mte =
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      if Vth.style_equal c.Cell.style Vth.Mt_embedded && Netlist.pin_net nl iid "MTE" = None
      then Netlist.connect nl iid "MTE" mte)

let replay tr ~(options : Flow.options) technique nl =
  observed @@ fun () ->
  let guard_errors = ref [] in
  let lib = Netlist.lib nl in
  let tech = Library.tech lib in
  let params =
    match options.Flow.cluster_params with Some p -> p | None -> Cluster.default_params tech
  in
  let slew_aware = options.Flow.slew_aware in
  let place =
    span tr "place" (fun () ->
        Placement.place ~seed:options.Flow.seed ~utilization:options.Flow.utilization
          ~iterations:options.Flow.placement_iterations nl)
  in
  let wire_est =
    span tr "route" (fun () ->
        Parasitics.wire_model (Parasitics.estimate ~seed:(options.Flow.seed + 17) place) nl)
  in
  let min_period =
    span tr "sta.analyze" (fun () -> Flow.minimal_period ~slew_aware ~wire:wire_est nl)
  in
  let clock_period = min_period *. (1.0 +. options.Flow.clock_margin) in
  let assign_period = min_period *. (1.0 +. options.Flow.assignment_margin) in
  let base_cfg = Sta.config ~wire:wire_est ~slew_aware ~clock_period () in
  let assign_cfg = Sta.config ~wire:wire_est ~slew_aware ~clock_period:assign_period () in
  let load_with cfg iid =
    match Netlist.output_net nl iid with Some out -> Sta.load_of_net cfg nl out | None -> 0.0
  in
  let load_est = load_with base_cfg in
  let phase = ref Drc.Pre_mt in
  let expect_buffered_mte = ref false in
  let session = ref None in
  let guard stage =
    if options.Flow.guard <> Flow.Guard_off then begin
      let vs =
        span tr "check" (fun () ->
            Drc.check ~phase:!phase ~place ~expect_buffered_mte:!expect_buffered_mte nl)
      in
      List.iter
        (fun v -> guard_errors := (stage ^ ": " ^ Violation.to_string v) :: !guard_errors)
        (Violation.errors vs);
      if !phase = Drc.Post_mt then begin
        let r =
          span tr "verify" (fun () ->
              match !session with
              | None ->
                let s, r = Verify.start nl in
                session := Some s;
                r
              | Some s -> Verify.update s)
        in
        List.iter
          (fun f -> guard_errors := (stage ^ ": " ^ Rules.to_string f) :: !guard_errors)
          (Rules.errors r.Verify.findings)
      end
    end
  in
  (* Flow's per-stage snapshot: full STA, netlist stats and standby
     leakage, then the guard. *)
  let measure ?(cfg = base_cfg) stage =
    span tr "sta.measure" (fun () ->
        ignore (Sta.analyze cfg nl);
        ignore (Nl_stats.compute nl);
        ignore (Leakage.standby nl));
    guard stage
  in
  let vgnd_lengths () =
    let groups = Netlist.switch_groups nl in
    List.iter
      (fun (_, members) ->
        let n = List.length members + 1 in
        tr.mst_points_max <- max tr.mst_points_max n;
        tr.mst_points_sq <- tr.mst_points_sq + (n * n))
      groups;
    span tr "geom.mst" (fun () -> Cluster.vgnd_lengths place)
  in
  measure "physical-synthesis";
  let assign = span tr "vth_assign" (fun () -> Vth_assign.assign assign_cfg nl) in
  tr.swapped <- tr.swapped + assign.Vth_assign.swapped;
  measure "high-Vth replacement";
  let clusters = ref [] in
  let activity = ref None in
  (match technique with
  | Flow.Dual_vth -> ()
  | Flow.Conventional_smt ->
    span tr "mt_replace" (fun () ->
        ignore (Mt_replace.replace Mt_replace.Conventional nl);
        connect_embedded_mte nl (Switch_insert.mte_net_of nl));
    measure "MT-cell replacement (embedded)"
  | Flow.Improved_smt ->
    let n_mt = span tr "mt_replace" (fun () -> Mt_replace.replace Mt_replace.Improved nl) in
    measure "MT-cell replacement (no VGND port)";
    if n_mt > 0 then begin
      let ins =
        span tr "switch_insert" (fun () ->
            Switch_insert.insert ~minimize_holders:options.Flow.minimize_holders place)
      in
      phase := Drc.Post_mt;
      let wl = vgnd_lengths () in
      span tr "bounce" (fun () ->
          ignore (Bounce.worst (Bounce.analyze ~load_of:load_est nl ~wire_length_of:wl)));
      measure "switch & holder insertion";
      let cycles = options.Flow.activity_cycles in
      tr.gate_evals <- tr.gate_evals + (cycles * Netlist.inst_count nl);
      let act =
        span tr "activity" (fun () -> Activity.estimate ~cycles ~seed:options.Flow.seed nl)
      in
      activity := Some act;
      let built =
        span tr "cluster" (fun () ->
            Cluster.build ~activity:act ~load_of:load_est ~params place
              ~mte_net:ins.Switch_insert.mte_net)
      in
      clusters := built.Cluster.clusters;
      let wl = vgnd_lengths () in
      span tr "bounce" (fun () ->
          ignore
            (Bounce.worst
               (Bounce.analyze ~activity:act ~load_of:load_est nl ~wire_length_of:wl)));
      measure "switch structure construction"
    end);
  let cts =
    span tr "cts" (fun () -> Cts.synthesize ~max_fanout:options.Flow.cts_max_fanout place)
  in
  (match (technique, Netlist.find_net nl "MTE") with
  | (Flow.Conventional_smt | Flow.Improved_smt), Some mte ->
    span tr "mte" (fun () ->
        ignore (Mte.buffer_tree ?max_fanout:options.Flow.mte_max_fanout place ~mte_net:mte))
  | _ -> ());
  expect_buffered_mte := true;
  let detour = options.Flow.detour in
  let wire_ext =
    span tr "route" (fun () -> Parasitics.wire_model (Parasitics.extract ~detour place) nl)
  in
  let ext_cfg = Sta.config ~wire:wire_ext ~slew_aware ~clock_period () in
  let load_ext = load_with ext_cfg in
  let bounce_reports () =
    let lengths = vgnd_lengths () in
    span tr "bounce" (fun () ->
        Bounce.analyze ?activity:!activity ~load_of:load_ext ~limit:params.Cluster.bounce_limit
          nl ~wire_length_of:(fun sw -> lengths sw *. detour))
  in
  let post_route_cfg reports =
    let bounce_of = span tr "bounce" (fun () -> Bounce.bounce_of_fn reports nl) in
    {
      (Sta.config ~wire:wire_ext ~slew_aware ~clock_period ()) with
      Sta.bounce_of;
      Sta.clock_latency = Cts.latency_fn cts;
      Sta.hold_margin = tech.Tech.hold_margin;
    }
  in
  measure ~cfg:(post_route_cfg (bounce_reports ())) "routing";
  (match technique with
  | Flow.Improved_smt when options.Flow.reoptimize && !clusters <> [] ->
    span tr "reopt" (fun () ->
        ignore
          (Reopt.reoptimize ?activity:!activity ~load_of:load_ext ~params ~detour place));
    measure ~cfg:(post_route_cfg (bounce_reports ())) "post-route switch re-optimization"
  | Flow.Improved_smt | Flow.Dual_vth | Flow.Conventional_smt -> ());
  let final_cfg = post_route_cfg (bounce_reports ()) in
  span tr "eco" (fun () ->
      ignore (Eco.fix_hold ~max_iterations:options.Flow.max_hold_iterations final_cfg place));
  let wns = span tr "sta.analyze" (fun () -> Sta.wns (Sta.analyze final_cfg nl)) in
  measure ~cfg:final_cfg "ECO & timing analysis";
  let stats, standby =
    span tr "sta.measure" (fun () -> (Nl_stats.compute nl, (Leakage.standby nl).Leakage.total))
  in
  ( {
      Workload.area = stats.Nl_stats.area_total;
      standby;
      wns;
      mt_cells = stats.Nl_stats.count_mt;
      switches = stats.Nl_stats.sleep_switches;
      clusters = List.length !clusters;
      holders = stats.Nl_stats.holders;
    },
    List.rev !guard_errors )

(* The real flow on the same kind of input, measured the same way. *)
let reference ~options technique nl =
  observed (fun () -> (Workload.qor_of_report (Flow.run ~options technique nl), []))

(* Mismatches between a replay and the real flow: one per differing QoR
   record, counter, or the update-evals sum. *)
let drift a b =
  let names = List.sort_uniq compare (List.map fst a.counters @ List.map fst b.counters) in
  let get n l = Option.value (List.assoc_opt n l) ~default:0 in
  (if Workload.qor_equal a.qor b.qor then 0 else 1)
  + List.length (List.filter (fun n -> get n a.counters <> get n b.counters) names)
  + if Workload.same_float a.update_evals b.update_evals then 0 else 1
