(* Benchmark & reproduction harness.

   For every table and figure of the paper this prints the corresponding
   reproduction (same rows/series, our measured values), and registers one
   Bechamel micro-benchmark for the computation that generates it:

     TABLE-1   area & standby leakage of the three techniques, circuits A/B
     FIG-1     MT-cell characterization (delay / leakage / area by flavour)
     FIG-2/3   conventional vs improved transform on the same logic
     FIG-4     the improved flow stage by stage
     ABLATION  the design-choice sweeps DESIGN.md calls out

   Sections are independent, so they run through the deterministic domain
   pool (SMT_JOBS controls the width): each section renders into its own
   buffer and the buffers are printed in input order, so stdout is the
   same at any job count. *)

module Netlist = Smt_netlist.Netlist
module Clone = Smt_netlist.Clone
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Tech = Smt_cell.Tech
module Library = Smt_cell.Library
module Placement = Smt_place.Placement
module Sta = Smt_sta.Sta
module Equiv = Smt_sim.Equiv
module Flow = Smt_core.Flow
module Compare = Smt_core.Compare
module Cluster = Smt_core.Cluster
module Vth_assign = Smt_core.Vth_assign
module Mt_replace = Smt_core.Mt_replace
module Switch_insert = Smt_core.Switch_insert
module Suite = Smt_circuits.Suite
module Generators = Smt_circuits.Generators
module Text_table = Smt_util.Text_table
module Geom = Smt_util.Geom
module Rng = Smt_util.Rng
module Metrics = Smt_obs.Metrics
module Par = Smt_obs.Par
module Pool = Smt_util.Pool

let lib = Library.default ()
let tech = Library.tech lib

let bpf = Printf.bprintf

let bline buf s =
  Buffer.add_string buf s;
  Buffer.add_char buf '\n'

let bnl buf = Buffer.add_char buf '\n'

let section buf name =
  bpf buf "\n================ %s ================\n\n" name

(* ------------------------------------------------------------------ *)
(* TABLE 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 buf =
  section buf "TABLE-1: Comparison of three techniques";
  let rows =
    [
      Compare.table1_row (fun () -> Suite.circuit_a lib);
      Compare.table1_row (fun () -> Suite.circuit_b lib);
    ]
  in
  bline buf (Compare.render rows);
  bnl buf;
  bpf buf "paper reports:   A: 100%% / 164.84%% / 133.18%% area, 100%% / 14.58%% / 9.42%% leakage\n";
  bpf buf "                 B: 100%% / 142.22%% / 115.65%% area, 100%% / 19.42%% / 12.21%% leakage\n\n";
  List.iter
    (fun row ->
      let area_saving, leak_saving = Compare.improvement row in
      bpf buf
        "%s improved vs conventional: area -%.1f%%, leakage -%.1f%%  (paper: ~-20%%, ~-40%%)\n"
        row.Compare.circuit (100.0 *. area_saving) (100.0 *. leak_saving))
    rows;
  bnl buf;
  bline buf (Compare.render_details rows)

(* ------------------------------------------------------------------ *)
(* FIG 1: MT-cell characterization                                     *)
(* ------------------------------------------------------------------ *)

let fig1 buf =
  section buf "FIG-1: 2-input NAND MT-cell structure & characterization";
  let load = 8.0 in
  let flavours =
    [
      ("low-Vth (NAND2_LVT)", Library.variant lib Func.Nand2 Vth.Low Vth.Plain);
      ("high-Vth (NAND2_HVT)", Library.variant lib Func.Nand2 Vth.High Vth.Plain);
      ("MT embedded, Fig.1a (NAND2_MTE)", Library.variant lib Func.Nand2 Vth.Low Vth.Mt_embedded);
      ("MT + VGND port, Fig.1b (NAND2_MTV)", Library.variant lib Func.Nand2 Vth.Low Vth.Mt_vgnd);
    ]
  in
  let rows =
    List.map
      (fun (label, c) ->
        [
          label;
          Printf.sprintf "%.2f" (Cell.delay c ~load_ff:load);
          Printf.sprintf "%.3f" c.Cell.leak_standby;
          Printf.sprintf "%.2f" c.Cell.area;
          Printf.sprintf "%.1f" c.Cell.switch_width;
        ])
      flavours
  in
  bline buf
    (Text_table.render
       ~header:[ "Cell"; "Delay @8fF (ps)"; "Standby leak (nW)"; "Area (um^2)"; "Footer W" ]
       rows);
  let d name v = (name, v) in
  let get n = List.assoc n (List.map (fun (l, c) -> d l c) flavours) in
  let lv = get "low-Vth (NAND2_LVT)" and hv = get "high-Vth (NAND2_HVT)" in
  let mtv = get "MT + VGND port, Fig.1b (NAND2_MTV)" in
  bpf buf
    "\npaper's claims hold: MT faster than high-Vth (%.1f < %.1f ps), less standby leakage \
     than low-Vth (%.3f << %.3f nW)\n"
    (Cell.delay mtv ~load_ff:load) (Cell.delay hv ~load_ff:load) mtv.Cell.leak_standby
    lv.Cell.leak_standby

(* ------------------------------------------------------------------ *)
(* FIG 2/3: conventional vs improved circuit on the same logic        *)
(* ------------------------------------------------------------------ *)

(* Dual-Vth assignment against 1.05x the ideal-wire minimal period: the
   common first step of every mini-pipeline below. *)
let assign_vth nl =
  ignore (Vth_assign.assign (Sta.config ~clock_period:(Flow.minimal_period nl *. 1.05) ()) nl)

(* The improved transform up to the switch structure: Vth assignment, MT
   replacement ([replace], default the selective one), placement and
   switch/holder insertion.  Returns the MT-cell count, the placement and
   the insertion result. *)
let improved_prefix ?(replace = Mt_replace.replace) nl =
  assign_vth nl;
  let n = replace Mt_replace.Improved nl in
  let place = Placement.place nl in
  (n, place, Switch_insert.insert place)

let transform technique nl =
  assign_vth nl;
  match technique with
  | `Conventional ->
    let n = Mt_replace.replace Mt_replace.Conventional nl in
    Flow.connect_embedded_mte nl (Switch_insert.mte_net_of nl);
    (n, n (* one embedded switch and holder per MT-cell *), n, nl)
  | `Improved ->
    let n = Mt_replace.replace Mt_replace.Improved nl in
    if n = 0 then (0, 0, 0, nl)
    else begin
      let place = Placement.place nl in
      let ins = Switch_insert.insert place in
      let act = Smt_sim.Activity.estimate ~cycles:64 nl in
      let built = Cluster.build ~activity:act place ~mte_net:ins.Switch_insert.mte_net in
      (n, List.length built.Cluster.clusters, ins.Switch_insert.holders_inserted, nl)
    end

let fig23 buf =
  section buf "FIG-2/3: conventional vs improved Selective-MT circuit";
  let run_on name gen =
    let con = gen () in
    let imp = gen () in
    let n_con, sw_con, hold_con, con = transform `Conventional con in
    let n_imp, sw_imp, hold_imp, imp = transform `Improved imp in
    let equivalent = n_con = 0 || Equiv.equivalent ~vectors:64 con imp in
    bpf buf "%-10s MT-cells=%d | Fig.2 conventional: %d switches, %d holders | \
             Fig.3 improved: %d shared switches, %d holders | equivalent=%b\n"
      name n_con sw_con hold_con sw_imp hold_imp equivalent;
    (n_imp, sw_imp, hold_imp)
  in
  let _ = run_on "fig23" (fun () -> Suite.fig23_example lib) in
  let n, sw, holders = run_on "mult8" (fun () -> Generators.multiplier ~name:"mult8" ~bits:8 lib) in
  bpf buf
    "\nthe improved circuit shares switches (%d cells over %d switches) and drops the \
     holders whose fanouts stay inside the MT domain (%d holders for %d MT-cells)\n"
    n sw holders n

(* ------------------------------------------------------------------ *)
(* FIG 4: the design flow, stage by stage                              *)
(* ------------------------------------------------------------------ *)

let fig4 buf =
  section buf "FIG-4: improved Selective-MT design flow on circuit A";
  let r = Flow.run Flow.Improved_smt (Suite.circuit_a lib) in
  bpf buf "clock period %.1f ps; final: wns=%.1f ps (met=%b), hold=%.1f ps (met=%b)\n\n"
    r.Flow.clock_period r.Flow.wns r.Flow.timing_met r.Flow.hold_slack r.Flow.hold_met;
  let rows =
    List.map
      (fun (s : Flow.stage) ->
        [
          s.Flow.stage_name;
          Printf.sprintf "%.0f" s.Flow.stage_area;
          Printf.sprintf "%.0f" s.Flow.stage_standby_nw;
          Printf.sprintf "%.1f" s.Flow.stage_wns;
          Printf.sprintf "%.4f" s.Flow.stage_worst_bounce;
          string_of_int s.Flow.stage_switches;
          string_of_int s.Flow.stage_holders;
        ])
      r.Flow.stages
  in
  bline buf
    (Text_table.render
       ~header:[ "Stage"; "Area"; "Standby nW"; "WNS ps"; "Bounce V"; "Sw"; "Holders" ]
       rows);
  bpf buf
    "\nnote the single initial switch violating the %.2f V bounce limit, repaired by the \
     clustering stage, and the post-route re-optimization absorbing the extraction error\n"
    tech.Tech.bounce_limit

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation buf =
  section buf "ABLATION: design-choice sweeps (improved flow on circuit A)";
  let base = Flow.default_options in
  let run ?(options = base) () = Flow.run ~options Flow.Improved_smt (Suite.circuit_a lib) in
  let params = Cluster.default_params tech in
  (* bounce-limit sweep: the designer's knob *)
  bline buf "bounce-limit sweep:";
  let rows =
    List.map
      (fun limit ->
        let options =
          { base with Flow.cluster_params = Some { params with Cluster.bounce_limit = limit } }
        in
        let r = run ~options () in
        [
          Printf.sprintf "%.3f V" limit;
          Printf.sprintf "%.0f" r.Flow.area;
          Printf.sprintf "%.0f" r.Flow.standby_nw;
          string_of_int r.Flow.n_clusters;
          Printf.sprintf "%.1f" r.Flow.total_switch_width;
          Printf.sprintf "%.1f" r.Flow.wns;
        ])
      [ 0.04; 0.06; 0.08; 0.10; 0.14 ]
  in
  bline buf
    (Text_table.render
       ~header:[ "Bounce limit"; "Area"; "Standby nW"; "Clusters"; "Total W"; "WNS ps" ]
       rows);
  (* VGND length cap sweep: the crosstalk knob *)
  bline buf "\nVGND length cap sweep:";
  let rows =
    List.map
      (fun cap ->
        let options =
          { base with Flow.cluster_params = Some { params with Cluster.length_limit = cap } }
        in
        let r = run ~options () in
        [
          Printf.sprintf "%.0f um" cap;
          string_of_int r.Flow.n_clusters;
          Printf.sprintf "%.0f" r.Flow.area;
          Printf.sprintf "%.1f" r.Flow.total_switch_width;
        ])
      [ 30.0; 60.0; 120.0; 240.0 ]
  in
  bline buf
    (Text_table.render ~header:[ "Length cap"; "Clusters"; "Area"; "Total W" ] rows);
  (* EM cells-per-switch sweep *)
  bline buf "\nEM cells-per-switch cap sweep:";
  let rows =
    List.map
      (fun cap ->
        let options =
          { base with Flow.cluster_params = Some { params with Cluster.cell_limit = cap } }
        in
        let r = run ~options () in
        [
          string_of_int cap;
          string_of_int r.Flow.n_clusters;
          Printf.sprintf "%.0f" r.Flow.area;
          Printf.sprintf "%.0f" r.Flow.standby_nw;
        ])
      [ 4; 8; 16; 24; 48 ]
  in
  bline buf
    (Text_table.render ~header:[ "Cells/switch"; "Clusters"; "Area"; "Standby nW" ] rows);
  (* binary knobs *)
  bline buf "\nbinary design choices:";
  let knob name options =
    let r = run ~options () in
    [
      name;
      Printf.sprintf "%.0f" r.Flow.area;
      Printf.sprintf "%.0f" r.Flow.standby_nw;
      Printf.sprintf "%.1f" r.Flow.total_switch_width;
      string_of_int r.Flow.bounce_violations;
      string_of_int r.Flow.n_holders;
    ]
  in
  let rows =
    [
      knob "baseline (all on)" base;
      knob "no activity-diversity sizing"
        { base with Flow.cluster_params = Some { params with Cluster.diversity = false } };
      knob "no holder minimization" { base with Flow.minimize_holders = false };
      knob "no post-route re-optimization (detour 1.5)"
        { base with Flow.reoptimize = false; Flow.detour = 1.5 };
    ]
  in
  bline buf
    (Text_table.render
       ~header:[ "Variant"; "Area"; "Standby nW"; "Total W"; "Bounce viol"; "Holders" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Extensions: corners, wake-up, retention, sizing                     *)
(* ------------------------------------------------------------------ *)

let extensions buf =
  section buf "EXTENSIONS: corners, wake-up cost, retention, gate sizing";
  (* leakage vs temperature per technique: why standby leakage is the
     battery killer precisely where phones live (warm pockets) *)
  bline buf "standby leakage vs temperature (circuit B, nW):";
  let reports = Flow.completed (Flow.run_all (fun () -> Suite.circuit_b lib)) in
  let temps = [ -40.0; 0.0; 25.0; 85.0; 125.0 ] in
  let header =
    "Technique" :: List.map (fun t -> Printf.sprintf "%.0fC" t) temps
  in
  let rows =
    List.map
      (fun (r : Flow.report) ->
        Flow.technique_name r.Flow.technique
        :: List.map
             (fun temp ->
               let corner = Smt_cell.Corner.make ~temperature_c:temp tech in
               let k = Smt_cell.Corner.leakage_factor tech corner in
               Printf.sprintf "%.0f" (r.Flow.standby_nw *. k))
             temps)
      reports
  in
  bline buf (Text_table.render ~header rows);
  (* wake-up cost vs cluster size: the trade-off that bounds sharing *)
  bline buf "\nwake-up cost vs cells-per-switch (improved transform of mult8):";
  let rows =
    List.map
      (fun cap ->
        let nl = Generators.multiplier ~name:"m8w" ~bits:8 lib in
        let _, place, ins = improved_prefix nl in
        let params = { (Cluster.default_params tech) with Cluster.cell_limit = cap } in
        let built = Cluster.build ~params place ~mte_net:ins.Switch_insert.mte_net in
        let wire_length_of = Cluster.vgnd_lengths place in
        let wake = Smt_power.Wakeup.analyze nl ~wire_length_of in
        [
          string_of_int cap;
          string_of_int (List.length built.Cluster.clusters);
          Printf.sprintf "%.1f" (Smt_power.Wakeup.worst_wake_time wake);
          Printf.sprintf "%.1f" (Smt_power.Wakeup.total_wake_energy wake);
        ])
      [ 2; 4; 8; 16; 24 ]
  in
  bline buf
    (Text_table.render
       ~header:[ "Cells/switch"; "Clusters"; "Worst wake (ps)"; "Wake energy (fJ)" ]
       rows);
  (* retention registers: removing the sequential leakage floor *)
  bline buf "\nretention registers (improved flow, circuit B):";
  let base = Flow.run Flow.Improved_smt (Suite.circuit_b lib) in
  let ret =
    Flow.run
      ~options:{ Flow.default_options with Flow.retention_registers = true }
      Flow.Improved_smt (Suite.circuit_b lib)
  in
  let row (r : Flow.report) label =
    [
      label;
      Printf.sprintf "%.0f" r.Flow.area;
      Printf.sprintf "%.0f" r.Flow.standby_nw;
      Printf.sprintf "%.0f" r.Flow.leakage.Smt_power.Leakage.sequential;
      string_of_int r.Flow.ffs_retained;
    ]
  in
  bline buf
    (Text_table.render
       ~header:[ "Variant"; "Area"; "Standby nW"; "FF leak nW"; "FFs retained" ]
       [ row base "plain flip-flops"; row ret "retention flip-flops" ]);
  (* the Table-1 shape is robust to the timing model: rerun circuit B under
     the NLDM slew-aware engine *)
  bline buf "\nTable 1 (circuit B) under the NLDM slew-aware timing model:";
  let nldm_row =
    Compare.table1_row
      ~options:{ Flow.default_options with Flow.slew_aware = true }
      (fun () -> Suite.circuit_b lib)
  in
  bline buf (Compare.render [ nldm_row ]);
  (* statistical leakage under process variation *)
  bline buf "\nstandby leakage under process variation (circuit B, 500 samples, sigma 0.35):";
  let nl_by_tech =
    List.map
      (fun technique ->
        let nl = Suite.circuit_b lib in
        ignore (Flow.run technique nl);
        (technique, nl))
      [ Flow.Dual_vth; Flow.Conventional_smt; Flow.Improved_smt ]
  in
  let rows =
    List.map
      (fun (technique, nl) ->
        let s = Smt_power.Variation.sample_standby nl in
        [
          Flow.technique_name technique;
          Printf.sprintf "%.0f" s.Smt_power.Variation.deterministic;
          Printf.sprintf "%.0f" s.Smt_power.Variation.mean;
          Printf.sprintf "%.0f" s.Smt_power.Variation.p95;
          Printf.sprintf "%.1f%%"
            (100.0 *. s.Smt_power.Variation.stddev /. s.Smt_power.Variation.mean);
        ])
      nl_by_tech
  in
  bline buf
    (Text_table.render
       ~header:[ "Technique"; "Nominal nW"; "Mean nW"; "P95 nW"; "Rel sigma" ]
       rows);
  (* gate sizing on an X2-mapped netlist *)
  bline buf "\ngate sizing (X2-mapped mult8, Dual-Vth flow):";
  let x2_mult () =
    let nl = Generators.multiplier ~name:"m8x2" ~bits:8 lib in
    Smt_netlist.Netlist.iter_insts nl (fun iid ->
        let c = Smt_netlist.Netlist.cell nl iid in
        if Library.has_variant ~drive:2 lib c.Cell.kind c.Cell.vth c.Cell.style then
          Smt_netlist.Netlist.replace_cell nl iid (Library.resize lib c 2));
    nl
  in
  let unsized = Flow.run Flow.Dual_vth (x2_mult ()) in
  let sized =
    Flow.run ~options:{ Flow.default_options with Flow.gate_sizing = true } Flow.Dual_vth
      (x2_mult ())
  in
  let row (r : Flow.report) label =
    [
      label;
      Printf.sprintf "%.0f" r.Flow.area;
      Printf.sprintf "%.0f" r.Flow.standby_nw;
      string_of_int r.Flow.cells_downsized;
      Printf.sprintf "%.1f" r.Flow.wns;
    ]
  in
  bline buf
    (Text_table.render
       ~header:[ "Variant"; "Area"; "Standby nW"; "Downsized"; "WNS ps" ]
       [ row unsized "as mapped (X2)"; row sized "with drive recovery" ])

(* ------------------------------------------------------------------ *)
(* System: router-measured detours, sleep protocol, power domains      *)
(* ------------------------------------------------------------------ *)

let system buf =
  section buf "SYSTEM: measured routing detour, sleep protocol, power domains";
  (* circuit inventory *)
  bline buf "circuit inventory (improved flow on each):";
  let rows =
    List.filter_map
      (fun (name, g) ->
        let nl = g lib in
        let stats0 = Smt_netlist.Nl_stats.compute nl in
        if Netlist.clock_net nl = None then None
        else begin
          let r = Flow.run Flow.Improved_smt nl in
          Some
            [
              name;
              string_of_int stats0.Smt_netlist.Nl_stats.instances;
              string_of_int stats0.Smt_netlist.Nl_stats.sequential;
              Printf.sprintf "%.0f" r.Flow.clock_period;
              string_of_int r.Flow.n_mt_cells;
              Printf.sprintf "%.0f" r.Flow.standby_nw;
              (if r.Flow.timing_met then "met" else "VIOLATED");
            ]
        end)
      Suite.all
  in
  bline buf
    (Text_table.render
       ~header:[ "Circuit"; "Insts"; "FFs"; "Clock ps"; "MT cells"; "Standby nW"; "Timing" ]
       rows);
  bnl buf;
  (* the detour factor the flow assumes (1.15), measured by the router *)
  let nl = Generators.multiplier ~name:"m8sys" ~bits:8 lib in
  let place = Placement.place nl in
  let routed = Smt_route.Global_router.route place in
  bpf buf
    "global router on mult8: %d nets, %.0f um routed, overflow %d edges, max congestion \
     %.2f, measured detour factor %.3f (flow assumes 1.15)\n\n"
    (Smt_route.Global_router.routed_nets routed)
    (Smt_route.Global_router.total_length routed)
    (Smt_route.Global_router.overflow routed)
    (Smt_route.Global_router.max_congestion routed)
    (Smt_route.Global_router.detour_factor routed place);
  (* sleep protocol on the finished improved block *)
  let nl = Generators.multiplier ~name:"m8sp" ~bits:8 lib in
  let report = Flow.run Flow.Improved_smt nl in
  let o = Smt_core.Standby.simulate nl in
  bpf buf
    "sleep protocol (improved mult8): state preserved %b | outputs held %b | X leaks %d | \
     wake-up correct from cycle 1 %b | MTE tree delay %.1f ps\n\n"
    o.Smt_core.Standby.state_preserved o.Smt_core.Standby.outputs_defined_in_standby
    o.Smt_core.Standby.x_leaks_into_awake_logic o.Smt_core.Standby.first_wake_cycle_correct
    (Smt_core.Standby.mte_tree_delay
       (Sta.config ~clock_period:report.Flow.clock_period ())
       nl);
  (* power domains: the partial-standby states a single MTE cannot express *)
  let nl = Generators.multiplier ~name:"m8pd" ~bits:8 lib in
  let _, place, _ = improved_prefix nl in
  Smt_core.Domains.partition ~domains:2 place;
  bline buf "two power domains on mult8:";
  let rows =
    List.map
      (fun (label, asleep) ->
        [ label; Printf.sprintf "%.1f" (Smt_core.Domains.standby_leakage nl ~asleep) ])
      [
        ("all awake", []); ("domain 0 asleep", [ "pd0" ]); ("domain 1 asleep", [ "pd1" ]);
        ("full standby", [ "pd0"; "pd1" ]);
      ]
  in
  bline buf (Text_table.render ~header:[ "State"; "Leakage nW" ] rows);
  (* VGND lengths measured on the congestion map vs the assumed detour *)
  let nl_vg = Generators.multiplier ~name:"m8vg" ~bits:8 lib in
  let _, place_vg, ins_vg = improved_prefix nl_vg in
  ignore (Cluster.build place_vg ~mte_net:ins_vg.Switch_insert.mte_net);
  let routed_vg = Smt_route.Global_router.route place_vg in
  let vgnd_len = Cluster.vgnd_lengths place_vg in
  let assumed = ref 0.0 and measured = ref 0.0 in
  List.iter
    (fun (sw, members) ->
      let pts =
        List.filter_map (fun m -> Placement.inst_point_opt place_vg m) members
        @ (match Placement.inst_point_opt place_vg sw with Some p -> [ p ] | None -> [])
      in
      assumed := !assumed +. (vgnd_len sw *. 1.15);
      measured := !measured +. Smt_route.Global_router.congested_length routed_vg pts)
    (Netlist.switch_groups nl_vg);
  bpf buf
    "VGND line lengths, all clusters (mult8): assumed %.0f um (spanning x1.15) vs \
     congestion-measured %.0f um\n\n"
    !assumed !measured;
  (* multi-corner sign-off of the finished improved block *)
  bline buf "\nmulti-corner sign-off (improved mult8):";
  let nl_so = Generators.multiplier ~name:"m8so" ~bits:8 lib in
  let rep_so = Flow.run Flow.Improved_smt nl_so in
  let so =
    Smt_core.Signoff.run (Sta.config ~clock_period:rep_so.Flow.clock_period ()) nl_so
  in
  bline buf (Smt_core.Signoff.render so);
  (* scalability of the flow infrastructure *)
  bline buf "\nflow scalability (improved flow on multipliers):";
  let evals = Metrics.counter "sta.arrival_evals" in
  let rows =
    List.map
      (fun bits ->
        let nl = Generators.multiplier ~name:(Printf.sprintf "m%dsc" bits) ~bits lib in
        let t0 = Unix.gettimeofday () in
        let e0 = Metrics.counter_value evals in
        let r = Flow.run Flow.Improved_smt nl in
        let dt = Unix.gettimeofday () -. t0 in
        let e1 = Metrics.counter_value evals in
        let stats = Smt_netlist.Nl_stats.compute nl in
        [
          Printf.sprintf "mult%d" bits;
          string_of_int stats.Smt_netlist.Nl_stats.instances;
          string_of_int r.Flow.n_mt_cells;
          string_of_int r.Flow.n_clusters;
          Printf.sprintf "%.0f ms" (dt *. 1000.0);
          string_of_int (e1 - e0);
          (if r.Flow.timing_met then "met" else "VIOLATED");
        ])
      [ 4; 8; 12; 16 ]
  in
  bline buf
    (Text_table.render
       ~header:
         [ "Circuit"; "Instances"; "MT cells"; "Clusters"; "Flow time"; "STA evals"; "Timing" ]
       rows);
  (* the all-MT strawman, apples to apples: identical mini-pipelines
     (Vth assignment -> replacement -> insertion -> clustering), the only
     difference being whether high-Vth survivors are gated too *)
  bline buf "\nall-MT comparison point (identical pipelines on mult8):";
  let mini ~all name =
    let nl = Generators.multiplier ~name ~bits:8 lib in
    let replace = if all then Mt_replace.replace_all else Mt_replace.replace in
    let n, place, ins = improved_prefix ~replace nl in
    let act = Smt_sim.Activity.estimate ~cycles:64 nl in
    ignore (Cluster.build ~activity:act place ~mte_net:ins.Switch_insert.mte_net);
    let stats = Smt_netlist.Nl_stats.compute nl in
    let leak = (Smt_power.Leakage.standby nl).Smt_power.Leakage.total in
    let wakes =
      Smt_power.Wakeup.analyze nl ~wire_length_of:(Cluster.vgnd_lengths place)
    in
    let wake = Smt_power.Wakeup.worst_wake_time wakes in
    let rush =
      List.fold_left (fun acc w -> acc +. w.Smt_power.Wakeup.rush_current_ua) 0.0 wakes
    in
    let energy = Smt_power.Wakeup.total_wake_energy wakes in
    [
      (if all then "all-MT" else "improved Selective-MT");
      string_of_int n;
      Printf.sprintf "%.0f" stats.Smt_netlist.Nl_stats.area_total;
      Printf.sprintf "%.0f" leak;
      string_of_int stats.Smt_netlist.Nl_stats.holders;
      Printf.sprintf "%.0f" wake;
      Printf.sprintf "%.0f" rush;
      Printf.sprintf "%.0f" energy;
    ]
  in
  bline buf
    (Text_table.render
       ~header:
         [ "Style"; "MT cells"; "Area"; "Standby nW"; "Holders"; "Wake ps"; "Rush uA";
           "Wake fJ" ]
       [ mini ~all:false "m8sel"; mini ~all:true "m8all" ]);
  bline buf
    "(gating everything buys a few percent of leakage but gates twice the cells:\n\
     more area, a larger wake-up charge and rush-current surge — for logic that\n\
     barely leaked. That asymmetry is the 'selective' in Selective-MT.)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table / figure         *)
(* ------------------------------------------------------------------ *)

let bechamel_benches buf =
  section buf "BECHAMEL: runtime of each experiment's generator";
  let open Bechamel in
  let open Toolkit in
  (* Named workloads, used twice: once instrumented (counter deltas per
     single run) and once under the bechamel timer. *)
  let workload_table1 () = ignore (Flow.run Flow.Improved_smt (Suite.circuit_a lib)) in
  let workload_fig1 () =
    List.iter
      (fun kind ->
        ignore (Cell.delay (Library.variant lib kind Vth.Low Vth.Mt_vgnd) ~load_ff:8.0))
      Library.comb_kinds
  in
  let workload_fig23 () =
    ignore (transform `Improved (Generators.multiplier ~name:"m8b" ~bits:8 lib))
  in
  let workload_fig4 () = ignore (Flow.run Flow.Improved_smt (Suite.circuit_b lib)) in
  let workload_ablation =
    let nl = Generators.multiplier ~name:"m8c" ~bits:8 lib in
    let _, place, ins = improved_prefix nl in
    fun () -> ignore (Cluster.build place ~mte_net:ins.Switch_insert.mte_net)
  in
  (* The VGND spanning tree alone, on row-quantised (placement-like) point
     sets: a cluster-sized net, the initial one-switch net of datapath-mult64
     (17,072 points) and a mid rung, plus a set where about half the points
     repeat an earlier location. *)
  let row_points ?(coincident = false) n =
    let r = Rng.create n in
    let side = 2.0 *. sqrt (float_of_int n) in
    let pts =
      Array.init n (fun _ ->
          Geom.point
            (0.5 *. float_of_int (Rng.int r (int_of_float (side /. 0.5))))
            (2.0 *. (float_of_int (Rng.int r (int_of_float (side /. 2.0))) +. 0.5)))
    in
    if coincident then
      for i = 1 to n - 1 do
        if Rng.bool r then pts.(i) <- pts.(Rng.int r i)
      done;
    Array.to_list pts
  in
  let workload_mst pts () = ignore (Geom.spanning_edges pts) in
  let mst_workloads =
    [
      ("geom-mst-25", workload_mst (row_points 25));
      ("geom-mst-4k", workload_mst (row_points 4000));
      ("geom-mst-17k", workload_mst (row_points 17072));
      ("geom-mst-4k-coincident", workload_mst (row_points ~coincident:true 4000));
    ]
  in
  (* The two netlist walks the flow repeats most, alone, on a registered
     32x32 multiplier (6,080 instances): the switching-activity estimate at
     the flow's 200 cycles and a full placement (12 refinement passes). *)
  let mult32 = Generators.multiplier ~name:"m32" ~bits:32 lib in
  let layer_workloads =
    [
      ("activity-mult32", fun () -> ignore (Smt_sim.Activity.estimate ~cycles:200 mult32));
      ("place-mult32", fun () -> ignore (Placement.place mult32));
    ]
  in
  let workloads =
    [
      ("table1-improved-flow-circuit-a", workload_table1);
      ("fig1-cell-characterization", workload_fig1);
      ("fig23-improved-transform-mult8", workload_fig23);
      ("fig4-staged-flow-circuit-b", workload_fig4);
      ("ablation-cluster-build-mult8", workload_ablation);
    ]
  in
  (* What each benchmark actually does, from the observability registry:
     the counters that moved during one run of the workload. *)
  let tracked =
    [
      ("sta.analyses", "STA runs");
      ("sta.arrival_evals", "Arrival evals");
      ("place.iterations", "Place iters");
      ("cluster.clusters_formed", "Clusters");
      ("eco.hold_buffers_added", "ECO bufs");
    ]
  in
  let counter_value name = Metrics.counter_value (Metrics.counter name) in
  (* Arrival-evals per timing update, as quantiles of the sta.update_evals
     histogram.  Read as before/after hit-count deltas so each row is the
     distribution of that workload's own updates — identical whether the
     section runs on a fresh worker store or inline on the shared one. *)
  let h_update = Metrics.histogram "sta.update_evals" in
  let instrumented =
    List.map
      (fun (name, f) ->
        let before = List.map (fun (c, _) -> counter_value c) tracked in
        let hits0 = Metrics.histogram_hits h_update in
        f ();
        let after = List.map (fun (c, _) -> counter_value c) tracked in
        let hits = Array.map2 ( - ) (Metrics.histogram_hits h_update) hits0 in
        let counters =
          name :: List.map2 (fun a b -> string_of_int (a - b)) after before
        in
        let updates = Array.fold_left ( + ) 0 hits in
        let q p =
          if updates = 0 then "-"
          else Printf.sprintf "%.0f" (Metrics.quantile_of_hits h_update hits p)
        in
        (counters, [ name; string_of_int updates; q 0.5; q 0.9; q 0.99 ]))
      workloads
  in
  let counter_rows = List.map fst instrumented in
  bline buf "per-benchmark counters (one untimed run each):";
  bline buf
    (Text_table.render ~header:("Benchmark" :: List.map snd tracked) counter_rows);
  bnl buf;
  bline buf "arrival evals per STA update (same untimed runs):";
  bline buf
    (Text_table.render
       ~header:[ "Benchmark"; "Updates"; "Evals p50"; "Evals p90"; "Evals p99" ]
       (List.map snd instrumented));
  bnl buf;
  let test =
    Test.make_grouped ~name:"selective-mt"
      (List.map
         (fun (name, f) -> Test.make ~name (Staged.stage f))
         (workloads @ mst_workloads @ layer_workloads))
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let time_ns =
        match Analyze.OLS.estimates result with Some (t :: _) -> t | Some [] | None -> nan
      in
      rows := [ name; Printf.sprintf "%.3f ms" (time_ns /. 1e6) ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  bline buf (Text_table.render ~header:[ "Benchmark"; "Time per run" ] rows)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Each section's counter readout is the delta its own work produced, not
   the accumulation of everything before it. Computing before/after deltas
   (instead of resetting the registry per section) gives the same numbers
   whether sections run sequentially or spread across pool workers, where
   each job already starts against a fresh domain-local store. *)
let run_sections ~jobs sections =
  let run_one (name, f) =
    let before = Metrics.counters () in
    let buf = Buffer.create 8192 in
    f buf;
    let after = Metrics.counters () in
    let delta =
      List.filter_map
        (fun (c, v) ->
          let v0 = Option.value (List.assoc_opt c before) ~default:0 in
          if v - v0 <> 0 then Some (c, v - v0) else None)
        after
    in
    (name, Buffer.contents buf, delta)
  in
  Par.map ~jobs run_one sections

let sections_json per_section =
  let module J = Smt_obs.Obs_json in
  J.obj
    (List.map
       (fun (name, _, counters) ->
         ( name,
           J.obj
             (List.map (fun (c, v) -> (c, string_of_int v))
                (List.sort compare counters)) ))
       per_section)

let () =
  let jobs = Pool.default_jobs () in
  (* Bechamel runs alone on the calling domain once the pool has joined:
     it compacts until the major heap's live words settle, which never
     happens while sibling sections allocate on other domains. *)
  let per_section =
    run_sections ~jobs
      [
        ("table1", table1);
        ("fig1", fig1);
        ("fig23", fig23);
        ("fig4", fig4);
        ("ablation", ablation);
        ("extensions", extensions);
        ("system", system);
      ]
    @ run_sections ~jobs:1 [ ("bechamel", bechamel_benches) ]
  in
  (* Buffers print in input order: stdout is identical at any job count. *)
  List.iter (fun (_, out, _) -> print_string out) per_section;
  (* SMT_METRICS=FILE dumps one counter object per section — regression
     tracking of how much work each reproduction does, not just how long. *)
  (match Sys.getenv_opt "SMT_METRICS" with
  | Some path ->
    Smt_obs.Obs_json.to_file path (sections_json per_section);
    Printf.eprintf "per-section metrics written to %s\n%!" path
  | None -> ());
  (* Freeze the QoR snapshot the regression gate compares against
     (SMT_BENCH_OUT overrides the path). *)
  let bench_out =
    Option.value (Sys.getenv_opt "SMT_BENCH_OUT") ~default:"BENCH_seed.json"
  in
  Metrics.reset ();
  let snap = Smt_core.Qor.collect ~jobs ~tag:"seed" () in
  Smt_obs.Snapshot.write bench_out snap;
  Printf.eprintf "QoR snapshot (%d workloads) written to %s\n%!"
    (List.length snap.Smt_obs.Snapshot.s_workloads)
    bench_out;
  print_newline ();
  print_endline "all reproduction sections complete."
