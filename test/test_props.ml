(* Property-based tests (qcheck) over the core data structures and the MT
   invariants, registered as alcotest cases. *)

module Netlist = Smt_netlist.Netlist
module Check = Smt_check.Drc
module Clone = Smt_netlist.Clone
module Nl_stats = Smt_netlist.Nl_stats
module Placement = Smt_place.Placement
module Parasitics = Smt_route.Parasitics
module Sta = Smt_sta.Sta
module Geom = Smt_util.Geom
module Stats = Smt_util.Stats
module Rng = Smt_util.Rng
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()

let qtest = QCheck_alcotest.to_alcotest

(* --- util properties --- *)

let prop_percentile_bounded =
  QCheck2.Test.make ~name:"percentile within min/max" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 40) (float_range (-100.) 100.)) (float_range 0. 100.))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_spanning_vs_bbox =
  (* the rectilinear MST is at least as long as the larger bbox side and at
     most n-1 times the full half-perimeter *)
  QCheck2.Test.make ~name:"spanning length bounds" ~count:200
    QCheck2.Gen.(list_size (int_range 2 12) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun raw ->
      let pts = List.map (fun (x, y) -> Geom.point x y) raw in
      let len = Geom.spanning_length pts in
      let box = Geom.bbox_of_points pts in
      let lower = Float.max (Geom.width box) (Geom.height box) in
      let upper = float_of_int (List.length pts - 1) *. Geom.hpwl box in
      len >= lower -. 1e-6 && len <= upper +. 1e-6)

(* The dense O(n^2) Prim scan: the reference that [Geom.spanning_edges]
   must reproduce edge for edge, same point objects in the same order. *)
let reference_spanning_edges points =
  match Array.of_list points with
  | [||] | [| _ |] -> []
  | pts ->
    let n = Array.length pts in
    let in_tree = Array.make n false in
    let dist = Array.make n infinity in
    let parent = Array.make n 0 in
    in_tree.(0) <- true;
    for j = 1 to n - 1 do
      dist.(j) <- Geom.manhattan pts.(0) pts.(j)
    done;
    let edges = ref [] in
    for _ = 1 to n - 1 do
      let best = ref (-1) in
      for j = 0 to n - 1 do
        if (not in_tree.(j)) && (!best = -1 || dist.(j) < dist.(!best)) then best := j
      done;
      let b = !best in
      in_tree.(b) <- true;
      edges := (pts.(parent.(b)), pts.(b)) :: !edges;
      for j = 0 to n - 1 do
        if not in_tree.(j) then begin
          let d = Geom.manhattan pts.(b) pts.(j) in
          if d < dist.(j) then begin
            dist.(j) <- d;
            parent.(j) <- b
          end
        end
      done
    done;
    List.rev !edges

let same_edges a b =
  List.length a = List.length b
  && List.for_all2 (fun (p, c) (p', c') -> p == p' && c == c') a b

(* Point sets for the MST properties, as (shape, size, seed).  Sizes
   straddle the dense-scan cutoff; the shapes make distance ties common:
   uniform floats, a small integer grid, placement-like rows (x on a site
   grid, y on row centres), one collinear row, a grid where about half
   the points repeat an earlier location, and uniform floats with one
   non-finite coordinate (a placement file can hold one). *)
let point_set (shape, n, seed) =
  let r = Rng.create seed in
  let grid () = Geom.point (float_of_int (Rng.int r 5)) (float_of_int (Rng.int r 5)) in
  let pts =
    Array.init n (fun _ ->
        match shape with
        | 1 | 4 -> grid ()
        | 2 -> Geom.point (0.5 *. float_of_int (Rng.int r 200)) (2.0 *. (float_of_int (Rng.int r 12) +. 0.5))
        | 3 -> Geom.point (float_of_int (Rng.int r 60)) 7.0
        | _ -> Geom.point (Rng.float r 100.) (Rng.float r 100.))
  in
  if shape = 4 then
    for i = 1 to n - 1 do
      if Rng.bool r then begin
        let q = pts.(Rng.int r i) in
        pts.(i) <- Geom.point q.Geom.x q.Geom.y
      end
    done;
  if shape = 5 && n > 0 then
    pts.(Rng.int r n) <- Geom.point (Rng.pick r [| nan; infinity; neg_infinity |]) 1.0;
  Array.to_list pts

let gen_point_set = QCheck2.Gen.(triple (int_range 0 5) (int_range 0 400) int)

let print_point_set (shape, n, seed) = Printf.sprintf "shape %d, %d points, seed %d" shape n seed

let prop_spanning_edges_sum =
  (* the VGND length and the router's 2-pin pairs come from one tree: the
     length is the in-order edge sum, bit for bit, and the edges span the
     points (n-1 edges, each attaching a new point to one already in the
     tree). *)
  QCheck2.Test.make ~name:"spanning length is the in-order edge sum" ~count:300
    ~print:print_point_set gen_point_set
    (fun spec ->
      let pts = point_set spec in
      let edges = Geom.spanning_edges pts in
      let sum = List.fold_left (fun acc (a, b) -> acc +. Geom.manhattan a b) 0.0 edges in
      let attached =
        List.fold_left
          (fun (ok, seen) (a, b) -> (ok && List.memq a seen, b :: seen))
          (true, match pts with p :: _ -> [ p ] | [] -> [])
          edges
      in
      Int64.equal (Int64.bits_of_float sum) (Int64.bits_of_float (Geom.spanning_length pts))
      && List.length edges = max 0 (List.length pts - 1)
      && fst attached)

let prop_spanning_edges_reference =
  QCheck2.Test.make ~name:"spanning edges match the dense Prim reference" ~count:300
    ~print:print_point_set gen_point_set
    (fun spec ->
      let pts = point_set spec in
      same_edges (Geom.spanning_edges pts) (reference_spanning_edges pts))

let test_spanning_edges_reference_4k () =
  (* one placement-sized row set, far past the dense-scan cutoff *)
  let pts = point_set (2, 4000, 4000) in
  Alcotest.(check bool) "edges" true
    (same_edges (Geom.spanning_edges pts) (reference_spanning_edges pts))

let prop_rng_int_uniformish =
  QCheck2.Test.make ~name:"rng int hits the whole range" ~count:20
    QCheck2.Gen.(int_range 2 20)
    (fun bound ->
      let r = Rng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to 2000 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

(* --- random netlists --- *)

let random_netlist seed =
  let which = seed mod 4 in
  match which with
  | 0 ->
    Generators.layered ~seed ~min_depth:2 ~name:(Printf.sprintf "rnd%d" seed) ~inputs:6
      ~outputs:4 ~width:8 ~depth:5 lib
  | 1 -> Generators.ripple_adder ~registered:(seed mod 2 = 0) ~name:(Printf.sprintf "rnd%d" seed) ~bits:(3 + (seed mod 5)) lib
  | 2 -> Generators.multiplier ~name:(Printf.sprintf "rnd%d" seed) ~bits:(2 + (seed mod 4)) lib
  | _ -> Generators.counter ~name:(Printf.sprintf "rnd%d" seed) ~bits:(2 + (seed mod 8)) lib

let seed_gen = QCheck2.Gen.int_range 0 10_000

let prop_generated_valid =
  QCheck2.Test.make ~name:"generated netlists validate" ~count:40 seed_gen
    (fun seed -> Check.validate (random_netlist seed) = [])

let prop_topo_respects_edges =
  QCheck2.Test.make ~name:"topological order respects fanin" ~count:30 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let order = Netlist.topo_order nl in
      let pos = Hashtbl.create 97 in
      List.iteri (fun i iid -> Hashtbl.replace pos iid i) order;
      List.for_all
        (fun iid ->
          List.for_all
            (fun pred ->
              match (Hashtbl.find_opt pos pred, Hashtbl.find_opt pos iid) with
              | Some pp, Some pi -> pp < pi
              | _ -> true (* flip-flops are outside the comb frame *))
            (Netlist.fanin_insts nl iid))
        order)

let prop_roundtrip_preserves_stats =
  QCheck2.Test.make ~name:"writer/parser roundtrip preserves structure" ~count:30 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let nl2 = Clone.copy nl in
      let s1 = Nl_stats.compute nl and s2 = Nl_stats.compute nl2 in
      s1 = s2)

let prop_roundtrip_equivalent =
  QCheck2.Test.make ~name:"clone is functionally equivalent" ~count:12 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      Smt_sim.Equiv.equivalent ~vectors:16 ~cycles:4 nl (Clone.copy nl))

let prop_placement_in_die =
  QCheck2.Test.make ~name:"placement stays in the die" ~count:15 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let place = Placement.place ~seed nl in
      let die = Placement.die place in
      List.for_all
        (fun iid ->
          match Placement.inst_point_opt place iid with
          | Some p -> Geom.contains die p
          | None -> false)
        (Netlist.live_insts nl))

let prop_sta_arrivals_monotone =
  QCheck2.Test.make ~name:"arrival grows along paths" ~count:15 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let sta = Sta.analyze (Sta.config ~clock_period:1e5 ()) nl in
      List.for_all
        (fun iid ->
          match Netlist.output_net nl iid with
          | None -> true
          | Some out ->
            if Netlist.is_clock_net nl out then true
            else
              List.for_all
                (fun pred ->
                  match Netlist.output_net nl pred with
                  | Some pout when not (Netlist.is_clock_net nl pout) ->
                    (* flip-flop outputs restart the clock frame *)
                    (Netlist.cell nl pred).Smt_cell.Cell.kind = Smt_cell.Func.Dff
                    || Sta.arrival sta out > Sta.arrival sta pout -. 1e-9
                  | Some _ | None -> true)
                (Netlist.fanin_insts nl iid))
        (Netlist.topo_order nl))

let prop_extraction_nonnegative =
  QCheck2.Test.make ~name:"extracted RC non-negative" ~count:15 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let place = Placement.place ~seed nl in
      let ext = Parasitics.extract place in
      let ok = ref true in
      Netlist.iter_nets nl (fun nid ->
          if Parasitics.net_cap ext nid < 0.0 || Parasitics.net_res ext nid < 0.0 then
            ok := false);
      !ok)

let prop_leakage_positive =
  QCheck2.Test.make ~name:"standby leakage positive and below active-floor x100" ~count:20
    seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let b = Smt_power.Leakage.standby nl in
      b.Smt_power.Leakage.total > 0.0
      && b.Smt_power.Leakage.total <= 100.0 *. Smt_power.Leakage.active nl)

(* --- MT invariants on randomized flows --- *)

let prop_cluster_invariants =
  QCheck2.Test.make ~name:"cluster constraints hold for random circuits" ~count:8
    (QCheck2.Gen.int_range 0 1000)
    (fun seed ->
      let nl = random_netlist ((seed * 4) + 2) (* multipliers: plenty of MT cells *) in
      let probe = 1e6 in
      let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
      let period = (probe -. Sta.wns sta) *. 1.05 in
      ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
      let n = Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl in
      if n = 0 then true
      else begin
        let place = Placement.place ~seed nl in
        let ins = Smt_core.Switch_insert.insert place in
        let built =
          Smt_core.Cluster.build place ~mte_net:ins.Smt_core.Switch_insert.mte_net
        in
        let tech = Library.tech lib in
        let p = Smt_core.Cluster.default_params tech in
        List.for_all
          (fun c ->
            List.length c.Smt_core.Cluster.members <= p.Smt_core.Cluster.cell_limit
            && c.Smt_core.Cluster.wire_length <= p.Smt_core.Cluster.length_limit +. 1e-9
            && c.Smt_core.Cluster.bounce <= p.Smt_core.Cluster.bounce_limit +. 1e-9)
          built.Smt_core.Cluster.clusters
        && Check.validate ~phase:Check.Post_mt nl = []
      end)

let prop_holder_rule_sound =
  QCheck2.Test.make ~name:"holder rule: no floating net reaches a non-MT sink" ~count:8
    (QCheck2.Gen.int_range 0 1000)
    (fun seed ->
      let nl = random_netlist ((seed * 4) + 2) in
      let probe = 1e6 in
      let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
      let period = (probe -. Sta.wns sta) *. 1.05 in
      ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
      let n = Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl in
      if n = 0 then true
      else begin
        let place = Placement.place ~seed nl in
        ignore (Smt_core.Switch_insert.insert place);
        let sim = Smt_sim.Simulator.create nl in
        Smt_sim.Simulator.reset sim;
        let inputs =
          Netlist.inputs nl
          |> List.map (fun (name, _) -> (name, Smt_sim.Logic.of_bool (seed mod 2 = 0)))
        in
        Smt_sim.Simulator.set_inputs sim inputs;
        Smt_sim.Simulator.propagate ~mode:Smt_sim.Simulator.Standby sim;
        List.for_all
          (fun nid ->
            (not (Netlist.is_po nl nid))
            && List.for_all
                 (fun (pin : Netlist.pin) ->
                   Smt_cell.Cell.is_mt (Netlist.cell nl pin.Netlist.inst))
                 (Netlist.sinks nl nid))
          (Smt_sim.Simulator.floating_nets sim)
      end)

(* --- extension modules --- *)

let prop_router_sound =
  QCheck2.Test.make ~name:"router covers spread nets, detour >= 1" ~count:10 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let place = Placement.place ~seed nl in
      let r = Smt_route.Global_router.route place in
      let ok = ref true in
      Netlist.iter_nets nl (fun nid ->
          let pts = Placement.pin_points place nid in
          if List.length pts >= 2 && Placement.net_hpwl place nid > 0.0 then
            if Smt_route.Global_router.net_length r nid <= 0.0 then ok := false);
      !ok && Smt_route.Global_router.detour_factor r place >= 1.0)

let prop_optimizer_safe =
  QCheck2.Test.make ~name:"optimizer preserves function and validity" ~count:10 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let golden = Clone.copy nl in
      ignore (Smt_netlist.Optimize.run nl);
      Check.validate nl = [] && Smt_sim.Equiv.equivalent ~vectors:12 ~cycles:4 golden nl)

let prop_placement_io_roundtrip =
  QCheck2.Test.make ~name:"placement io roundtrip" ~count:10 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let place = Placement.place ~seed nl in
      let back = Placement.of_string nl (Placement.to_string place) in
      List.for_all
        (fun iid ->
          let a = Placement.inst_point place iid and b = Placement.inst_point back iid in
          Float.abs (a.Geom.x -. b.Geom.x) < 1e-3 && Float.abs (a.Geom.y -. b.Geom.y) < 1e-3)
        (Netlist.live_insts nl))

let prop_nldm_lookup_bounded =
  QCheck2.Test.make ~name:"nldm lookup within table bounds" ~count:100
    QCheck2.Gen.(pair (float_range (-50.) 400.) (float_range (-10.) 200.))
    (fun (slew, load) ->
      let cell =
        Library.variant lib Smt_cell.Func.Nand2 Smt_cell.Vth.Low Smt_cell.Vth.Plain
      in
      let arcs = Smt_cell.Nldm.characterize cell in
      let v = Smt_cell.Nldm.lookup arcs.Smt_cell.Nldm.delay ~slew ~load in
      let values = arcs.Smt_cell.Nldm.delay.Smt_cell.Nldm.values in
      let lo = Array.fold_left (fun acc row -> Array.fold_left Float.min acc row) infinity values in
      let hi =
        Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) neg_infinity values
      in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_incremental_sta_exact =
  QCheck2.Test.make ~name:"incremental STA equals full re-analysis" ~count:12
    ~print:string_of_int seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let cfg = Sta.config ~clock_period:1e5 () in
      let sta = Sta.analyze cfg nl in
      let rng = Rng.create seed in
      let lib = Smt_netlist.Netlist.lib nl in
      let victims =
        Netlist.live_insts nl
        |> List.filter (fun iid ->
               let c = Netlist.cell nl iid in
               (not (Smt_cell.Func.is_sequential c.Smt_cell.Cell.kind))
               && (not (Smt_cell.Func.is_infrastructure c.Smt_cell.Cell.kind))
               && Smt_cell.Library.has_variant ~drive:c.Smt_cell.Cell.drive lib
                    c.Smt_cell.Cell.kind Smt_cell.Vth.High c.Smt_cell.Cell.style)
        |> List.filter (fun _ -> Rng.chance rng 0.3)
      in
      if victims = [] then true
      else begin
        List.iter
          (fun iid ->
            let c = Netlist.cell nl iid in
            Netlist.replace_cell nl iid
              (Smt_cell.Library.restyle lib c Smt_cell.Vth.High c.Smt_cell.Cell.style))
          victims;
        let incr = Sta.update sta ~changed:victims in
        let full = Sta.analyze cfg nl in
        (* infinities (no endpoints of a kind) must compare equal, not nan *)
        let feq a b = a = b || Float.abs (a -. b) < 1e-6 in
        let ok = ref true in
        Netlist.iter_nets nl (fun nid ->
            if not (feq (Sta.arrival incr nid) (Sta.arrival full nid)) then ok := false);
        !ok
        && feq (Sta.wns incr) (Sta.wns full)
        && feq (Sta.worst_hold_slack incr) (Sta.worst_hold_slack full)
      end)

let prop_compose_sound =
  QCheck2.Test.make ~name:"composition validates and counts add" ~count:10
    (QCheck2.Gen.pair seed_gen seed_gen)
    (fun (s1, s2) ->
      let a = random_netlist s1 and b = random_netlist s2 in
      let sa = Nl_stats.compute a and sb = Nl_stats.compute b in
      let top = Smt_netlist.Compose.merge ~name:"top" [ ("u0", a); ("u1", b) ] in
      Check.validate top = []
      && (Nl_stats.compute top).Nl_stats.instances
         = sa.Nl_stats.instances + sb.Nl_stats.instances)

let prop_standby_protocol_holds =
  QCheck2.Test.make ~name:"standby protocol invariants on random circuits" ~count:6
    (QCheck2.Gen.int_range 0 500)
    (fun seed ->
      let nl = random_netlist ((seed * 4) + 2) in
      let probe = 1e6 in
      let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
      let period = (probe -. Sta.wns sta) *. 1.05 in
      ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
      let n = Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl in
      if n = 0 then true
      else begin
        let place = Placement.place ~seed nl in
        ignore (Smt_core.Switch_insert.insert place);
        let o = Smt_core.Standby.simulate ~seed nl in
        o.Smt_core.Standby.state_preserved
        && o.Smt_core.Standby.outputs_defined_in_standby
        && o.Smt_core.Standby.x_leaks_into_awake_logic = 0
        && o.Smt_core.Standby.all_wake_cycles_correct
      end)

(* --- checker / fault-injection properties --- *)

module Drc = Smt_check.Drc
module Repair = Smt_check.Repair
module Violation = Smt_check.Violation
module Fault = Smt_fault.Fault
module Verify = Smt_verify.Verify
module Rules = Smt_verify.Rules
module Flow = Smt_core.Flow
module Suite = Smt_circuits.Suite

(* Improved-MT transform of a random circuit; None when no cell survives as
   an MT candidate. *)
let random_mt_netlist seed =
  let nl = random_netlist ((seed * 4) + 2) in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  if Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl = 0 then None
  else begin
    let place = Placement.place ~seed nl in
    ignore (Smt_core.Switch_insert.insert place);
    Some (nl, place)
  end

let prop_checker_clean_on_generated =
  QCheck2.Test.make ~name:"checker finds no errors in generated netlists" ~count:25
    seed_gen
    (fun seed ->
      Violation.errors (Drc.check ~expect_buffered_mte:false (random_netlist seed)) = [])

let prop_checker_agrees_with_validate =
  (* Every injected fault class is caught by its advertised checker: the
     structural classes by a DRC code, the semantic-only classes by a
     standby-verifier rule — and the semantic-only classes must stay
     invisible to the DRC (that is their whole point). *)
  QCheck2.Test.make ~name:"every fault class caught by DRC or the standby verifier"
    ~count:22
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 10))
    (fun (seed, which) ->
      let fault = List.nth Fault.all (which mod List.length Fault.all) in
      let fixture =
        (* Domain-only classes need declared domains and isolation clamps,
           which the random flow product never has. *)
        if Fault.requires_domains fault then
          Some (Suite.multi_domain ~domains:(2 + (seed mod 3)) ~name:"pd" lib, None)
        else
          Option.map (fun (nl, place) -> (nl, Some place)) (random_mt_netlist seed)
      in
      match fixture with
      | None -> true
      | Some (nl, place) ->
        (match Fault.inject ~seed nl fault with
        | None -> not (Fault.requires_domains fault)
        | Some _ ->
          let vs = Drc.check ?place ~expect_buffered_mte:false nl in
          let detected = List.map (fun v -> v.Violation.code) vs in
          let codes_ok =
            match Fault.expected_codes fault with
            | [] -> Violation.errors vs = [] (* DRC-invisible by design *)
            | expected -> List.exists (fun c -> List.mem c detected) expected
          in
          let rules_ok =
            match Fault.expected_rules fault with
            | [] -> true
            | expected ->
              let ids =
                List.map
                  (fun f -> f.Rules.rule.Rules.id)
                  (Verify.analyze nl).Verify.findings
              in
              List.exists (fun r -> List.mem r ids) expected
          in
          codes_ok && rules_ok))

let prop_flow_products_lint_clean =
  (* Whatever circuit the suite generates and whichever technique the
     flow applies, the finished netlist must carry no semantic standby
     errors: the holders, switches, and enable tree the flow inserts are
     exactly what the abstract interpretation demands. *)
  QCheck2.Test.make ~name:"flow products are lint-clean" ~count:8
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 23))
    (fun (seed, which) ->
      let name, gen = List.nth Suite.all (which mod List.length Suite.all) in
      let technique =
        match which mod 3 with
        | 0 -> Flow.Dual_vth
        | 1 -> Flow.Conventional_smt
        | _ -> Flow.Improved_smt
      in
      let nl = gen lib in
      (* Multi-domain circuits are generated post-MT: lint them as-is. *)
      if not (Suite.is_multi_domain name) then begin
        let options = { Flow.default_options with Flow.seed; Flow.activity_cycles = 32 } in
        ignore (Flow.run ~options technique nl)
      end;
      (Verify.analyze nl).Verify.findings = [])

let prop_repair_clears_repairable =
  QCheck2.Test.make ~name:"repair clears repairable faults and is idempotent" ~count:15
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 8))
    (fun (seed, which) ->
      match random_mt_netlist seed with
      | None -> true
      | Some (nl, place) ->
        let fault = List.nth Fault.all (which mod List.length Fault.all) in
        if not (Fault.repairable fault) then true
        else begin
          match Fault.inject ~seed nl fault with
          | None -> true
          | Some _ ->
            let vs = Drc.check ~place ~expect_buffered_mte:false nl in
            ignore (Repair.repair ~place nl vs);
            let after = Drc.check ~place ~expect_buffered_mte:false nl in
            let again = Repair.repair ~place nl after in
            Violation.errors after = [] && again.Repair.repaired = 0
        end)

(* One randomized ECO delta: a gate swap, a keeper deletion, or a
   keeper-enable rewire — the edit classes the flow's own repair and
   minimize stages produce. *)
let eco_delta rng nl =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  let pick = function
    | [] -> None
    | xs -> Some (List.nth xs (Rng.int rng (List.length xs)))
  in
  let swap_gate () =
    let comb =
      List.filter
        (fun i ->
          let k = (Netlist.cell nl i).Cell.kind in
          k = Func.Nand2 || k = Func.Nor2)
        (Netlist.live_insts nl)
    in
    match pick comb with
    | None -> ()
    | Some iid ->
      let c = Netlist.cell nl iid in
      let k' = if c.Cell.kind = Func.Nand2 then Func.Nor2 else Func.Nand2 in
      Netlist.replace_cell nl iid
        (Library.variant ~drive:c.Cell.drive (Netlist.lib nl) k' c.Cell.vth c.Cell.style)
  in
  let holders () =
    List.filter
      (fun i -> (Netlist.cell nl i).Cell.kind = Func.Holder)
      (Netlist.live_insts nl)
  in
  match Rng.int rng 3 with
  | 0 -> swap_gate ()
  | 1 -> (
    match pick (holders ()) with
    | None -> swap_gate ()
    | Some h -> Netlist.remove_inst nl h)
  | _ -> (
    let nets = ref [] in
    Netlist.iter_nets nl (fun nid ->
        if not (Netlist.is_clock_net nl nid) then nets := nid :: !nets);
    match (pick (holders ()), pick (List.rev !nets)) with
    | Some h, Some nid -> Netlist.connect nl h "MTE" nid
    | _ -> swap_gate ())

let prop_incremental_matches_full =
  (* The incremental soundness claim: after any chain of ECO deltas,
     [Verify.update] over the journal's dirty set reports byte-identical
     findings and the same value map as a from-scratch analysis.  25
     cases x 4 deltas = 100 randomized deltas per run. *)
  QCheck2.Test.make ~name:"incremental verify matches from-scratch over ECO deltas"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, domains) ->
      let nl = Suite.multi_domain ~domains ~name:"inc" lib in
      let session, _ = Smt_verify.Verify.start nl in
      let rng = Rng.create (0x1ec0 + seed) in
      let ok = ref true in
      for _ = 1 to 4 do
        eco_delta rng nl;
        let ru = Smt_verify.Verify.update session in
        let rf = Verify.analyze nl in
        let render (r : Verify.result) = List.map Rules.to_string r.Verify.findings in
        if render ru <> render rf || ru.Verify.values <> rf.Verify.values then
          ok := false
      done;
      !ok)

(* --- compiled fast paths against their reference implementations --- *)

module Logic = Smt_sim.Logic
module Simulator = Smt_sim.Simulator

(* Vth assignment at 5% over the critical delay, then MT replacement and,
   for [~insert], switch and holder insertion: the netlist states the
   simulator and placement meet inside the flow. *)
let mt_transform style ~insert nl =
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  if Smt_core.Mt_replace.replace style nl > 0 && insert then
    ignore (Smt_core.Switch_insert.insert (Placement.place nl));
  nl

(* Every MT style and holders appear across the kinds: 2 embedded
   (conventional), 3 without VGND ports, 4 with VGND ports, a shared switch
   and holders, 5 several power domains with isolation holders. *)
let oracle_circuit (kind, seed) =
  let suite () = if seed mod 2 = 0 then Suite.tiny lib else Suite.fig23_example lib in
  match kind with
  | 0 ->
    Generators.layered ~seed ~min_depth:2 ~name:"orc" ~inputs:6 ~outputs:4 ~width:8 ~depth:5
      lib
  | 1 -> Generators.multiplier ~registered:true ~name:"orc" ~bits:(2 + (seed mod 4)) lib
  | 2 -> mt_transform Smt_core.Mt_replace.Conventional ~insert:false (suite ())
  | 3 -> mt_transform Smt_core.Mt_replace.Improved ~insert:false (suite ())
  | 4 -> mt_transform Smt_core.Mt_replace.Improved ~insert:true (suite ())
  | _ -> Suite.multi_domain ~domains:(2 + (seed mod 3)) ~name:"orc" lib

let gen_oracle_circuit = QCheck2.Gen.(pair (int_range 0 5) (int_range 0 1000))
let print_oracle_circuit (kind, seed) = Printf.sprintf "kind %d, seed %d" kind seed

let prop_simulator_matches_reference =
  QCheck2.Test.make ~name:"compiled simulator matches the interpreting reference" ~count:40
    ~print:print_oracle_circuit gen_oracle_circuit
    (fun circuit ->
      let nl = oracle_circuit circuit in
      let fast = Simulator.create nl and slow = Reference.Simulator.create nl in
      let rng = Rng.create (snd circuit) in
      let draw () = match Rng.int rng 5 with 0 -> Logic.X | 1 | 2 -> Logic.T | _ -> Logic.F in
      let insts = Netlist.live_insts nl in
      let ok = ref true in
      let agree () =
        for nid = 0 to Netlist.net_count nl - 1 do
          if not (Logic.equal (Simulator.value fast nid) (Reference.Simulator.value slow nid))
          then ok := false
        done;
        List.iter
          (fun iid ->
            let ours = Simulator.ff_state fast iid in
            if not (Logic.equal ours (Reference.Simulator.ff_state slow iid)) then ok := false)
          insts
      in
      let state = draw () in
      Simulator.reset ~state fast;
      Reference.Simulator.reset ~state slow;
      List.iter
        (fun iid ->
          if Rng.int rng 3 = 0 then begin
            let v = draw () in
            Simulator.set_ff_state fast iid v;
            Reference.Simulator.set_ff_state slow iid v
          end)
        insts;
      for _ = 1 to 6 do
        List.iter
          (fun (_, nid) ->
            let v = draw () in
            Simulator.set_input fast nid v;
            Reference.Simulator.set_input slow nid v)
          (Netlist.inputs nl);
        if Rng.int rng 3 = 0 then begin
          Simulator.propagate ~mode:Simulator.Standby fast;
          Reference.Simulator.propagate ~mode:Reference.Simulator.Standby slow
        end
        else begin
          Simulator.propagate fast;
          Reference.Simulator.propagate slow
        end;
        agree ();
        Simulator.clock_edge fast;
        Reference.Simulator.clock_edge slow;
        agree ()
      done;
      !ok)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_activity_matches_reference =
  QCheck2.Test.make ~name:"activity factors match the reference bit for bit" ~count:24
    ~print:print_oracle_circuit gen_oracle_circuit
    (fun ((_, seed) as circuit) ->
      let nl = oracle_circuit circuit in
      let fast = Smt_sim.Activity.estimate ~cycles:32 ~seed nl in
      let slow = Reference.Activity.estimate ~cycles:32 ~seed nl in
      Array.length fast.Smt_sim.Activity.toggles_per_cycle = Array.length slow
      && Array.for_all2 same_bits fast.Smt_sim.Activity.toggles_per_cycle slow)

let m_place_moves = Smt_obs.Metrics.counter "place.moves"

let prop_placement_matches_reference =
  QCheck2.Test.make ~name:"placement matches the list-based reference" ~count:12
    ~print:print_oracle_circuit gen_oracle_circuit
    (fun circuit ->
      let nl = oracle_circuit circuit in
      List.for_all
        (fun (seed, utilization) ->
          let before = Smt_obs.Metrics.counter_value m_place_moves in
          let fast = Placement.place ~seed ~utilization nl in
          let moves = Smt_obs.Metrics.counter_value m_place_moves - before in
          let dump, ref_moves = Reference.Placement.place ~seed ~utilization nl in
          String.equal (Placement.to_string fast) dump && moves = ref_moves)
        [ (1, 0.65); (5, 0.9) ])

let test_oracles_on_circuit_b () =
  (* one full-size paper circuit through all three references *)
  let nl = Suite.circuit_b lib in
  let fast = Smt_sim.Activity.estimate ~cycles:16 ~seed:3 nl in
  Alcotest.(check bool) "activity" true
    (Array.for_all2 same_bits fast.Smt_sim.Activity.toggles_per_cycle
       (Reference.Activity.estimate ~cycles:16 ~seed:3 nl));
  let dump, _ = Reference.Placement.place ~seed:1 nl in
  Alcotest.(check string) "placement" dump (Placement.to_string (Placement.place ~seed:1 nl))

let () =
  Alcotest.run "smt_props"
    [
      ( "util",
        [
          qtest prop_percentile_bounded;
          qtest prop_spanning_vs_bbox;
          qtest prop_spanning_edges_sum;
          qtest prop_spanning_edges_reference;
          Alcotest.test_case "spanning edges match the reference at 4000 points" `Quick
            test_spanning_edges_reference_4k;
          qtest prop_rng_int_uniformish;
        ] );
      ( "netlist",
        [
          qtest prop_generated_valid;
          qtest prop_topo_respects_edges;
          qtest prop_roundtrip_preserves_stats;
          qtest prop_roundtrip_equivalent;
        ] );
      ( "physical",
        [
          qtest prop_placement_in_die;
          qtest prop_sta_arrivals_monotone;
          qtest prop_extraction_nonnegative;
          qtest prop_leakage_positive;
        ] );
      ( "mt-invariants",
        [ qtest prop_cluster_invariants; qtest prop_holder_rule_sound ] );
      ( "check",
        [
          qtest prop_checker_clean_on_generated;
          qtest prop_checker_agrees_with_validate;
          qtest prop_repair_clears_repairable;
          qtest prop_flow_products_lint_clean;
          qtest prop_incremental_matches_full;
        ] );
      ( "oracles",
        [
          qtest prop_simulator_matches_reference;
          qtest prop_activity_matches_reference;
          qtest prop_placement_matches_reference;
          Alcotest.test_case "references agree on circuit_b" `Quick test_oracles_on_circuit_b;
        ] );
      ( "extensions",
        [
          qtest prop_router_sound;
          qtest prop_optimizer_safe;
          qtest prop_placement_io_roundtrip;
          qtest prop_nldm_lookup_bounded;
          qtest prop_standby_protocol_holds;
          qtest prop_incremental_sta_exact;
          qtest prop_compose_sound;
        ] );
    ]
