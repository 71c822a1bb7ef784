(* Tests for multi-domain power gating, Liberty export, and placement
   save/restore. *)

module Netlist = Smt_netlist.Netlist
module Check = Smt_check.Drc
module Placement = Smt_place.Placement
module Sta = Smt_sta.Sta
module Leakage = Smt_power.Leakage
module Domains = Smt_core.Domains
module Mt_replace = Smt_core.Mt_replace
module Vth_assign = Smt_core.Vth_assign
module Switch_insert = Smt_core.Switch_insert
module Library = Smt_cell.Library
module Liberty = Smt_cell.Liberty
module Cell = Smt_cell.Cell
module Generators = Smt_circuits.Generators

let lib = Library.default ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  loop 0

(* --- domains --- *)

let domain_fixture () =
  let nl = Generators.multiplier ~name:"md" ~bits:8 lib in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  ignore (Mt_replace.replace Mt_replace.Improved nl);
  let place = Placement.place nl in
  ignore (Switch_insert.insert place);
  (nl, place)

(* Read the partition back from the netlist's domain table. *)
let members nl d =
  List.filter (fun iid -> Netlist.inst_domain nl iid = Some d) (Mt_replace.mt_cells nl)

let enable nl d = Option.get (List.assoc d (Netlist.domains nl))

let test_partition_covers_all () =
  let nl, place = domain_fixture () in
  Domains.partition ~domains:3 place;
  Alcotest.(check (list string)) "three domains" [ "pd0"; "pd1"; "pd2" ]
    (List.map fst (Netlist.domains nl));
  let mt = Mt_replace.mt_cells nl in
  let assigned = List.concat_map (members nl) [ "pd0"; "pd1"; "pd2" ] in
  Alcotest.(check int) "all cells assigned" (List.length mt) (List.length assigned);
  Alcotest.(check int) "no duplicates" (List.length assigned)
    (List.length (List.sort_uniq compare assigned));
  (* every MT cell hangs from a switch of its own domain *)
  List.iter
    (fun iid ->
      match (Netlist.inst_domain nl iid, Netlist.vgnd_switch nl iid) with
      | Some dom, Some sw ->
        Alcotest.(check (option string)) "switch belongs to the domain" (Some dom)
          (Netlist.inst_domain nl sw)
      | _ -> Alcotest.fail "unassigned MT cell")
    mt

let test_partition_own_enables () =
  let nl, place = domain_fixture () in
  Domains.partition ~domains:2 place;
  let m0 = enable nl "pd0" and m1 = enable nl "pd1" in
  Alcotest.(check bool) "distinct enables" true (m0 <> m1);
  Alcotest.(check bool) "both primary inputs" true
    (Netlist.is_pi nl m0 && Netlist.is_pi nl m1);
  (* switches sit on their own domain's enable *)
  List.iter
    (fun sw ->
      match Netlist.inst_domain nl sw with
      | Some dom ->
        Alcotest.(check (option int)) "switch on domain enable" (Some (enable nl dom))
          (Netlist.pin_net nl sw "MTE")
      | None -> Alcotest.fail "switch outside every domain")
    (Netlist.switches nl)

let test_partition_geometric () =
  (* domains should be geometrically coherent: the bounding boxes of the
     two domains overlap less than either spans the die *)
  let nl, place = domain_fixture () in
  Domains.partition ~domains:2 place;
  let centroid d = Placement.centroid place (members nl d) in
  let c0 = centroid "pd0" and c1 = centroid "pd1" in
  Alcotest.(check bool) "centroids separated" true (Smt_util.Geom.manhattan c0 c1 > 5.0)

let test_partial_sleep_leakage_ordering () =
  let nl, place = domain_fixture () in
  Domains.partition ~domains:2 place;
  let awake = Domains.standby_leakage nl ~asleep:[] in
  let half0 = Domains.standby_leakage nl ~asleep:[ "pd0" ] in
  let half1 = Domains.standby_leakage nl ~asleep:[ "pd1" ] in
  let full = Domains.standby_leakage nl ~asleep:[ "pd0"; "pd1" ] in
  Alcotest.(check bool) "sleeping saves (domain 0)" true (half0 < awake);
  Alcotest.(check bool) "sleeping saves (domain 1)" true (half1 < awake);
  Alcotest.(check bool) "full sleep saves most" true (full < Float.min half0 half1);
  (* full sleep equals the ordinary standby accounting *)
  Alcotest.(check bool) "full sleep ~ global standby" true
    (Float.abs (full -. (Leakage.standby nl).Leakage.total) /. full < 0.2)

let test_partition_validates () =
  let nl, place = domain_fixture () in
  Domains.partition ~domains:2 place;
  Alcotest.(check (list string)) "netlist valid post-MT" []
    (Check.validate ~phase:Check.Post_mt nl)

let test_partition_bad_args () =
  let _, place = domain_fixture () in
  Alcotest.(check bool) "zero domains rejected" true
    (try
       Domains.partition ~domains:0 place;
       false
     with Invalid_argument _ -> true);
  let plain = Generators.c17 lib in
  let plain_place = Placement.place plain in
  Alcotest.(check bool) "no MT cells rejected" true
    (try
       Domains.partition plain_place;
       false
     with Invalid_argument _ -> true)

(* --- composition --- *)

let test_compose_structure () =
  let a = Generators.c17 lib in
  let b = Generators.counter ~name:"cnt" ~bits:4 lib in
  let top = Smt_netlist.Compose.merge ~name:"top" [ ("u0", a); ("u1", b) ] in
  Alcotest.(check (list string)) "valid" [] (Check.validate top);
  let sa = Smt_netlist.Nl_stats.compute a in
  let sb = Smt_netlist.Nl_stats.compute b in
  let st = Smt_netlist.Nl_stats.compute top in
  Alcotest.(check int) "instances add up"
    (sa.Smt_netlist.Nl_stats.instances + sb.Smt_netlist.Nl_stats.instances)
    st.Smt_netlist.Nl_stats.instances;
  (* one shared clock *)
  let clock_inputs =
    Netlist.inputs top |> List.filter (fun (_, nid) -> Netlist.is_clock_net top nid)
  in
  Alcotest.(check int) "single clock input" 1 (List.length clock_inputs)

let test_compose_preserves_function () =
  let a = Generators.c17 lib in
  let top = Smt_netlist.Compose.merge ~name:"top" [ ("u0", Generators.c17 lib) ] in
  (* drive the composed block and the standalone block identically *)
  let sim_top = Smt_sim.Simulator.create top in
  let sim_a = Smt_sim.Simulator.create a in
  for mask = 0 to 31 do
    let bit i = Smt_sim.Logic.of_bool (mask land (1 lsl i) <> 0) in
    let names = [ "G1"; "G2"; "G3"; "G4"; "G5" ] in
    Smt_sim.Simulator.set_inputs sim_a (List.mapi (fun i n -> (n, bit i)) names);
    Smt_sim.Simulator.set_inputs sim_top
      (List.mapi (fun i n -> ("u0_" ^ n, bit i)) names);
    Smt_sim.Simulator.propagate sim_a;
    Smt_sim.Simulator.propagate sim_top;
    List.iter
      (fun out ->
        let va = List.assoc out (Smt_sim.Simulator.output_values sim_a) in
        let vt = List.assoc ("u0_" ^ out) (Smt_sim.Simulator.output_values sim_top) in
        Alcotest.(check bool) (out ^ " matches") true (Smt_sim.Logic.equal va vt))
      [ "G22"; "G23" ]
  done

let test_compose_preserves_vgnd () =
  let nl = Generators.multiplier ~name:"m" ~bits:5 lib in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  ignore (Mt_replace.replace Mt_replace.Improved nl);
  let place = Placement.place nl in
  ignore (Switch_insert.insert place);
  let top = Smt_netlist.Compose.merge ~name:"top" [ ("b", nl) ] in
  Alcotest.(check (list string)) "post-MT valid after merge" []
    (Check.validate ~phase:Check.Post_mt top);
  Alcotest.(check int) "switches survive" (List.length (Netlist.switches nl))
    (List.length (Netlist.switches top))

let test_compose_bad_args () =
  let a = Generators.c17 lib in
  Alcotest.(check bool) "empty list" true
    (try
       ignore (Smt_netlist.Compose.merge ~name:"t" []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate prefix" true
    (try
       ignore
         (Smt_netlist.Compose.merge ~name:"t" [ ("u", a); ("u", Generators.c17 lib) ]);
       false
     with Invalid_argument _ -> true)

let test_soc_runs_the_flow () =
  let nl = Smt_circuits.Suite.all |> List.assoc "soc" |> fun g -> g lib in
  let r = Smt_core.Flow.run Smt_core.Flow.Improved_smt nl in
  Alcotest.(check bool) "flow completes on the composed SoC" true (r.Smt_core.Flow.area > 0.0);
  Alcotest.(check bool) "timing met" true r.Smt_core.Flow.timing_met

(* --- liberty --- *)

let test_liberty_structure () =
  let text = Liberty.to_string lib in
  Alcotest.(check bool) "library header" true (contains text "library(selective_mt)");
  Alcotest.(check bool) "nand2 lvt present" true (contains text "cell(NAND2_LVT)");
  Alcotest.(check bool) "mt variant present" true (contains text "cell(NAND2_MTV)");
  Alcotest.(check bool) "retention ff present" true (contains text "cell(DFF_RET)");
  Alcotest.(check bool) "ff block present" true (contains text "ff(IQ, IQN)");
  Alcotest.(check bool) "timing arcs present" true (contains text "intrinsic_rise");
  Alcotest.(check bool) "leakage attribute" true (contains text "cell_leakage_power")

let test_liberty_balanced_braces () =
  let text = Liberty.to_string lib in
  let opens = ref 0 and closes = ref 0 in
  String.iter
    (fun c -> if c = '{' then incr opens else if c = '}' then incr closes)
    text;
  Alcotest.(check int) "braces balanced" !opens !closes;
  Alcotest.(check bool) "covers the library" true
    (Liberty.cell_count lib > 60)

let test_liberty_numbers_match () =
  let text = Liberty.to_string lib in
  let nand2 = Library.variant lib Smt_cell.Func.Nand2 Smt_cell.Vth.Low Smt_cell.Vth.Plain in
  Alcotest.(check bool) "area appears" true
    (contains text (Printf.sprintf "area : %.4f;" nand2.Cell.area))

let test_liberty_parse_roundtrip () =
  let text = Liberty.to_string lib in
  let cells = Liberty.parse text in
  Alcotest.(check int) "every cell parsed" (Liberty.cell_count lib) (List.length cells);
  (* spot-check a cell's numbers against the library *)
  let nand2 = Library.variant lib Smt_cell.Func.Nand2 Smt_cell.Vth.Low Smt_cell.Vth.Plain in
  let parsed = List.find (fun c -> c.Liberty.p_name = "NAND2_LVT") cells in
  Alcotest.(check (float 1e-3)) "area round-trips" nand2.Cell.area parsed.Liberty.p_area;
  Alcotest.(check (float 1e-5)) "leakage round-trips" nand2.Cell.leak_standby
    parsed.Liberty.p_leakage;
  Alcotest.(check int) "two inputs" 2 (List.length parsed.Liberty.p_input_pins);
  Alcotest.(check (list string)) "one output" [ "Z" ] parsed.Liberty.p_output_pins;
  List.iter
    (fun (_, cap) -> Alcotest.(check (float 1e-4)) "pin cap" nand2.Cell.input_cap cap)
    parsed.Liberty.p_input_pins

let test_liberty_parse_rejects_garbage () =
  Alcotest.(check bool) "garbage raises" true
    (try
       ignore (Liberty.parse "cell ( { ;");
       false
     with Failure _ -> true)

(* --- placement io --- *)

let test_placement_roundtrip () =
  let nl = Generators.multiplier ~name:"mp" ~bits:6 lib in
  let place = Placement.place nl in
  let text = Placement.to_string place in
  let back = Placement.of_string nl text in
  List.iter
    (fun iid ->
      let p1 = Placement.inst_point place iid and p2 = Placement.inst_point back iid in
      Alcotest.(check bool)
        (Netlist.inst_name nl iid ^ " position survives")
        true
        (Float.abs (p1.Smt_util.Geom.x -. p2.Smt_util.Geom.x) < 1e-3
        && Float.abs (p1.Smt_util.Geom.y -. p2.Smt_util.Geom.y) < 1e-3))
    (Netlist.live_insts nl);
  Alcotest.(check bool) "hpwl agrees" true
    (Float.abs (Placement.total_hpwl place -. Placement.total_hpwl back)
     /. Placement.total_hpwl place
    < 0.01)

let test_placement_io_errors () =
  let nl = Generators.c17 lib in
  Alcotest.(check bool) "missing DIE" true
    (try
       ignore (Placement.of_string nl "INST nobody 1 2\n");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "unknown instance" true
    (try
       ignore
         (Placement.of_string nl "DIE 0 0 10 10 ROWS 2\nINST nobody 1 2\n");
       false
     with Failure _ -> true)

let () =
  Alcotest.run "smt_domains_io"
    [
      ( "domains",
        [
          Alcotest.test_case "covers all cells" `Quick test_partition_covers_all;
          Alcotest.test_case "own enables" `Quick test_partition_own_enables;
          Alcotest.test_case "geometric coherence" `Quick test_partition_geometric;
          Alcotest.test_case "partial sleep ordering" `Quick test_partial_sleep_leakage_ordering;
          Alcotest.test_case "validates" `Quick test_partition_validates;
          Alcotest.test_case "bad arguments" `Quick test_partition_bad_args;
        ] );
      ( "compose",
        [
          Alcotest.test_case "structure" `Quick test_compose_structure;
          Alcotest.test_case "function preserved" `Quick test_compose_preserves_function;
          Alcotest.test_case "vgnd preserved" `Quick test_compose_preserves_vgnd;
          Alcotest.test_case "bad arguments" `Quick test_compose_bad_args;
          Alcotest.test_case "soc through the flow" `Quick test_soc_runs_the_flow;
        ] );
      ( "liberty",
        [
          Alcotest.test_case "structure" `Quick test_liberty_structure;
          Alcotest.test_case "balanced braces" `Quick test_liberty_balanced_braces;
          Alcotest.test_case "numbers match" `Quick test_liberty_numbers_match;
          Alcotest.test_case "parse roundtrip" `Quick test_liberty_parse_roundtrip;
          Alcotest.test_case "parse rejects garbage" `Quick test_liberty_parse_rejects_garbage;
        ] );
      ( "placement-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_placement_roundtrip;
          Alcotest.test_case "errors" `Quick test_placement_io_errors;
        ] );
    ]
