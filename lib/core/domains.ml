module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Vth = Smt_cell.Vth
module Geom = Smt_util.Geom

(* Geometric partition: k-means on cell positions with a few Lloyd
   iterations, seeded deterministically along the die diagonal. *)
let kmeans place cells k =
  let pts = List.map (fun iid -> (iid, Placement.inst_point place iid)) cells in
  let die = Placement.die place in
  let centers =
    Array.init k (fun i ->
        let f = (float_of_int i +. 0.5) /. float_of_int k in
        Geom.point
          (die.Geom.lx +. (f *. Geom.width die))
          (die.Geom.ly +. (f *. Geom.height die)))
  in
  let assign () =
    let groups = Array.make k [] in
    List.iter
      (fun (iid, p) ->
        let best = ref 0 in
        Array.iteri
          (fun i c -> if Geom.manhattan p c < Geom.manhattan p centers.(!best) then best := i)
          centers;
        groups.(!best) <- iid :: groups.(!best))
      pts;
    Array.map List.rev groups
  in
  let recenter groups =
    Array.iteri
      (fun i members ->
        match members with
        | [] -> ()
        | _ ->
          let n = float_of_int (List.length members) in
          let sx, sy =
            List.fold_left
              (fun (sx, sy) iid ->
                let p = Placement.inst_point place iid in
                (sx +. p.Geom.x, sy +. p.Geom.y))
              (0.0, 0.0) members
          in
          centers.(i) <- Geom.point (sx /. n) (sy /. n))
      groups
  in
  let groups = ref (assign ()) in
  for _ = 1 to 6 do
    recenter !groups;
    groups := assign ()
  done;
  !groups

let partition ?(domains = 2) ?activity ?params place =
  if domains < 1 then invalid_arg "Domains.partition: need at least one domain";
  let nl = Placement.netlist place in
  let cells =
    List.filter
      (fun iid -> (Netlist.cell nl iid).Cell.style = Vth.Mt_vgnd)
      (Netlist.live_insts nl)
  in
  if cells = [] then invalid_arg "Domains.partition: no MT-cells to partition";
  (* dissolve any existing structure once *)
  List.iter
    (fun (sw, members) ->
      List.iter (fun m -> Netlist.set_vgnd_switch nl m None) members;
      Netlist.remove_inst nl sw)
    (Netlist.switch_groups nl);
  let groups = kmeans place cells domains in
  let dom i = Printf.sprintf "pd%d" i in
  let mtes =
    Array.init domains (fun i ->
        let name = Printf.sprintf "MTE%d" i in
        let mte =
          match Netlist.find_net nl name with
          | Some nid -> nid
          | None -> Netlist.add_input nl name
        in
        Netlist.add_domain nl ~name:(dom i) ~mte:(Some mte);
        mte)
  in
  Array.iteri
    (fun i members ->
      if members <> [] then begin
        let before = Netlist.switches nl in
        ignore
          (Cluster.build ?activity ?params ~dissolve:false ~cells:members place
             ~mte_net:mtes.(i));
        let built = List.filter (fun sw -> not (List.mem sw before)) (Netlist.switches nl) in
        List.iter (fun iid -> Netlist.set_inst_domain nl iid (Some (dom i))) (members @ built)
      end)
    groups

let standby_leakage nl ~asleep =
  let total = ref 0.0 in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      let asleep =
        match Netlist.inst_domain nl iid with Some d -> List.mem d asleep | None -> false
      in
      let leak =
        match c.Cell.style with
        | Vth.Mt_vgnd | Vth.Mt_no_vgnd ->
          if asleep then c.Cell.leak_standby else c.Cell.leak_active
        | Vth.Plain | Vth.Mt_embedded -> c.Cell.leak_standby
      in
      total := !total +. leak);
  !total
