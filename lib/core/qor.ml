module Suite = Smt_circuits.Suite
module Library = Smt_cell.Library
module Metrics = Smt_obs.Metrics
module Snapshot = Smt_obs.Snapshot

let technique_slug = function
  | Flow.Dual_vth -> "dual"
  | Flow.Conventional_smt -> "conventional"
  | Flow.Improved_smt -> "improved"

let default_workloads =
  List.concat_map
    (fun (cname, gen) ->
      List.map
        (fun t -> (Printf.sprintf "%s/%s" cname (technique_slug t), gen, t))
        [ Flow.Dual_vth; Flow.Conventional_smt; Flow.Improved_smt ])
    [ ("circuit_a", Suite.circuit_a); ("circuit_b", Suite.circuit_b) ]

let counter_delta ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let b = Option.value (List.assoc_opt name before) ~default:0 in
      if v <> b then Some (name, v - b) else None)
    after

let qor_of (r : Flow.report) =
  [
    ("area_um2", r.Flow.area);
    ("standby_nw", r.Flow.standby_nw);
    ("wns_ps", r.Flow.wns);
    ("clusters", float_of_int r.Flow.n_clusters);
    ("switches", float_of_int r.Flow.n_switches);
    ("holders", float_of_int r.Flow.n_holders);
    ("mt_cells", float_of_int r.Flow.n_mt_cells);
    ("total_switch_width", r.Flow.total_switch_width);
  ]

let ledger_workload ~name ~before (r : Flow.report) =
  {
    Smt_obs.Ledger.lw_workload =
      Snapshot.workload ~name ~qor:(qor_of r)
        ~counters:(counter_delta ~before ~after:(Metrics.counters ()))
        ~stage_ms:
          (List.map (fun (s : Flow.stage) -> (s.Flow.stage_name, s.Flow.stage_ms)) r.Flow.stages);
    Smt_obs.Ledger.lw_prof =
      List.filter_map
        (fun (s : Flow.stage) ->
          Option.map (fun p -> (s.Flow.stage_name, p)) s.Flow.stage_prof)
        r.Flow.stages;
  }

let run_workload ~options (name, gen, t) =
  let before = Metrics.counters () in
  ledger_workload ~name ~before (Flow.run ~options t (gen (Library.default ())))

let collect_ledger ?(seed = 1) ?(jobs = 1) ~tag () =
  let options = { Flow.default_options with Flow.seed } in
  let workloads = Smt_obs.Par.map ~jobs (run_workload ~options) default_workloads in
  let snapshot =
    Snapshot.make ~tag (List.map (fun lw -> lw.Smt_obs.Ledger.lw_workload) workloads)
  in
  (snapshot, workloads)

let collect ?seed ?jobs ~tag () = fst (collect_ledger ?seed ?jobs ~tag ())
