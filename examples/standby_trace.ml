(* Sleep like a phone: run the improved Selective-MT block through a full
   active -> standby -> wake cycle, verify the Selective-MT invariants,
   and show what multiple power domains buy in partial-standby states.

     dune exec examples/standby_trace.exe *)

module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Sta = Smt_sta.Sta
module Flow = Smt_core.Flow
module Standby = Smt_core.Standby
module Domains = Smt_core.Domains
module Mt_replace = Smt_core.Mt_replace
module Vth_assign = Smt_core.Vth_assign
module Switch_insert = Smt_core.Switch_insert
module Generators = Smt_circuits.Generators

let () =
  let lib = Smt_cell.Library.default () in
  let nl = Generators.multiplier ~name:"mult8" ~bits:8 lib in
  let report = Flow.run Flow.Improved_smt nl in
  Printf.printf "block built: %d MT-cells over %d shared switches, %d holders\n\n"
    report.Flow.n_mt_cells report.Flow.n_switches report.Flow.n_holders;

  (* 1. the sleep protocol, checked against a never-slept reference *)
  let o = Standby.simulate ~standby_cycles:4 nl in
  Printf.printf "sleep protocol over %d cycles:\n" o.Standby.cycles_run;
  Printf.printf "  flip-flop state preserved through standby : %b\n" o.Standby.state_preserved;
  Printf.printf "  primary outputs held while asleep          : %b\n"
    o.Standby.outputs_defined_in_standby;
  Printf.printf "  floating nets reaching awake logic         : %d\n"
    o.Standby.x_leaks_into_awake_logic;
  Printf.printf "  first cycle after wake-up correct          : %b\n"
    o.Standby.first_wake_cycle_correct;
  let cfg = Sta.config ~clock_period:report.Flow.clock_period () in
  Printf.printf "  MTE enable-tree insertion delay            : %.1f ps\n\n"
    (Standby.mte_tree_delay cfg nl);

  (* 2. multiple power domains: partial standby states *)
  let nl2 = Generators.multiplier ~name:"mult8d" ~bits:8 lib in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl2 in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Vth_assign.assign (Sta.config ~clock_period:period ()) nl2);
  ignore (Mt_replace.replace Mt_replace.Improved nl2);
  let place = Placement.place nl2 in
  ignore (Switch_insert.insert place);
  Domains.partition ~domains:2 place;
  let mt_cells d =
    List.length
      (List.filter (fun iid -> Netlist.inst_domain nl2 iid = Some d) (Mt_replace.mt_cells nl2))
  in
  Printf.printf "two power domains (%d + %d MT-cells):\n" (mt_cells "pd0") (mt_cells "pd1");
  List.iter
    (fun (label, asleep) ->
      Printf.printf "  %-22s %8.1f nW\n" label (Domains.standby_leakage nl2 ~asleep))
    [
      ("all awake", []); ("domain 0 asleep", [ "pd0" ]); ("domain 1 asleep", [ "pd1" ]);
      ("full standby", [ "pd0"; "pd1" ]);
    ]
