(* Reference implementations kept as test oracles for the compiled fast
   paths in the library: the interpreting simulator (pins looked up by
   name on every visit), the activity estimator built on it, and the
   placement whose refinement passes rebuild every neighbour list and
   legalize through the coordinate table.  Property tests compare the
   library against these bit for bit. *)

module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Library = Smt_cell.Library
module Logic = Smt_sim.Logic
module Geom = Smt_util.Geom
module Rng = Smt_util.Rng

module Simulator = struct
  type mode = Active | Standby

  type t = {
    nl : Netlist.t;
    order : Netlist.inst_id list;
    values : Logic.value array;
    ff_q : (Netlist.inst_id, Logic.value) Hashtbl.t;
  }

  let create nl =
    {
      nl;
      order = Netlist.topo_order nl;
      values = Array.make (Netlist.net_count nl) Logic.X;
      ff_q = Hashtbl.create 97;
    }

  let set_input t nid v =
    if not (Netlist.is_pi t.nl nid) then invalid_arg "Reference.Simulator.set_input";
    t.values.(nid) <- v

  let set_inputs t bindings =
    List.iter
      (fun (name, v) ->
        match Netlist.find_net t.nl name with
        | Some nid -> set_input t nid v
        | None -> invalid_arg "Reference.Simulator.set_inputs")
      bindings

  let ff_state t iid =
    match Hashtbl.find_opt t.ff_q iid with Some v -> v | None -> Logic.F

  let set_ff_state t iid v = Hashtbl.replace t.ff_q iid v

  let eval_inst t mode iid =
    let cell = Netlist.cell t.nl iid in
    match cell.Cell.kind with
    | Func.Dff | Func.Sleep_switch | Func.Holder -> ()
    | k -> (
      match Netlist.output_net t.nl iid with
      | None -> ()
      | Some out ->
        let ins =
          Array.map
            (fun pin ->
              match Netlist.pin_net t.nl iid pin with
              | Some nid -> t.values.(nid)
              | None -> Logic.X)
            (Func.input_names k)
        in
        let v = Logic.eval k ins in
        let v =
          match mode with
          | Active -> v
          | Standby ->
            if Cell.is_mt cell then
              match cell.Cell.style with
              | Smt_cell.Vth.Mt_embedded -> Logic.T
              | Smt_cell.Vth.Mt_vgnd | Smt_cell.Vth.Mt_no_vgnd ->
                if Netlist.holder_of t.nl out <> None then Logic.T else Logic.X
              | Smt_cell.Vth.Plain -> v
            else v
        in
        t.values.(out) <- v)

  let propagate ?(mode = Active) t =
    Netlist.iter_insts t.nl (fun iid ->
        if (Netlist.cell t.nl iid).Cell.kind = Func.Dff then
          match Netlist.pin_net t.nl iid "Q" with
          | Some q -> t.values.(q) <- ff_state t iid
          | None -> ());
    List.iter (eval_inst t mode) t.order

  let clock_edge t =
    let latched = ref [] in
    Netlist.iter_insts t.nl (fun iid ->
        if (Netlist.cell t.nl iid).Cell.kind = Func.Dff then
          match Netlist.pin_net t.nl iid "D" with
          | Some d -> latched := (iid, t.values.(d)) :: !latched
          | None -> ());
    List.iter (fun (iid, v) -> set_ff_state t iid v) !latched

  let value t nid = t.values.(nid)

  let reset ?(state = Logic.F) t =
    Hashtbl.reset t.ff_q;
    Netlist.iter_insts t.nl (fun iid ->
        if (Netlist.cell t.nl iid).Cell.kind = Func.Dff then Hashtbl.replace t.ff_q iid state);
    Array.fill t.values 0 (Array.length t.values) Logic.X
end

module Activity = struct
  let estimate ?(cycles = 200) ?(seed = 7) nl =
    let sim = Simulator.create nl in
    let rng = Rng.create seed in
    let n = Netlist.inst_count nl in
    let toggles = Array.make n 0 in
    let last = Array.make n Logic.X in
    let names =
      Netlist.inputs nl
      |> List.filter (fun (_, nid) -> not (Netlist.is_clock_net nl nid))
      |> List.map fst
    in
    Simulator.reset sim;
    for cycle = 0 to cycles - 1 do
      let vector = List.map (fun name -> (name, Logic.of_bool (Rng.bool rng))) names in
      Simulator.set_inputs sim vector;
      Simulator.propagate sim;
      Netlist.iter_insts nl (fun iid ->
          match Netlist.output_net nl iid with
          | None -> ()
          | Some out ->
            let v = Simulator.value sim out in
            if cycle > 0 && not (Logic.equal v last.(iid)) then toggles.(iid) <- toggles.(iid) + 1;
            last.(iid) <- v);
      Simulator.clock_edge sim
    done;
    let denom = float_of_int (max 1 (cycles - 1)) in
    Array.map (fun c -> float_of_int c /. denom) toggles
end

module Placement = struct
  type t = {
    nl : Netlist.t;
    die : Geom.bbox;
    rows : int;
    row_height : float;
    coords : (Netlist.inst_id, Geom.point) Hashtbl.t;
    ports : (string, Geom.point) Hashtbl.t;
  }

  let clamp_into die (p : Geom.point) =
    {
      Geom.x = Geom.clamp p.Geom.x ~lo:die.Geom.lx ~hi:die.Geom.hx;
      Geom.y = Geom.clamp p.Geom.y ~lo:die.Geom.ly ~hi:die.Geom.hy;
    }

  let pin_points t nid =
    let nl = t.nl in
    let of_inst iid = Hashtbl.find_opt t.coords iid in
    let driver =
      match Netlist.driver nl nid with
      | Some p -> Option.to_list (of_inst p.Netlist.inst)
      | None -> []
    in
    let sinks =
      List.filter_map (fun (p : Netlist.pin) -> of_inst p.Netlist.inst) (Netlist.sinks nl nid)
    in
    let holder =
      match Netlist.holder_of nl nid with Some h -> Option.to_list (of_inst h) | None -> []
    in
    let pads =
      if Netlist.is_pi nl nid || Netlist.is_po nl nid then
        Option.to_list (Hashtbl.find_opt t.ports (Netlist.net_name nl nid))
      else []
    in
    driver @ sinks @ holder @ pads

  let to_string t =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "DIE %.4f %.4f %.4f %.4f ROWS %d\n" t.die.Geom.lx t.die.Geom.ly
         t.die.Geom.hx t.die.Geom.hy t.rows);
    Hashtbl.iter
      (fun name (p : Geom.point) ->
        Buffer.add_string b (Printf.sprintf "PORT %s %.4f %.4f\n" name p.Geom.x p.Geom.y))
      t.ports;
    Netlist.iter_insts t.nl (fun iid ->
        match Hashtbl.find_opt t.coords iid with
        | Some p ->
          Buffer.add_string b
            (Printf.sprintf "INST %s %.4f %.4f\n" (Netlist.inst_name t.nl iid) p.Geom.x p.Geom.y)
        | None -> ());
    Buffer.contents b

  let levels nl =
    let level = Array.make (Netlist.inst_count nl) 0 in
    List.iter
      (fun iid ->
        level.(iid) <-
          List.fold_left
            (fun acc pred -> max acc (level.(pred) + 1))
            0 (Netlist.fanin_insts nl iid))
      (Netlist.topo_order nl);
    level

  let legalize t order_hint =
    let rows = Array.make t.rows [] in
    let cell_width iid = (Netlist.cell t.nl iid).Cell.area /. t.row_height in
    List.iter
      (fun iid ->
        match Hashtbl.find_opt t.coords iid with
        | None -> ()
        | Some p ->
          let row =
            int_of_float ((p.Geom.y -. t.die.Geom.ly) /. t.row_height) |> max 0 |> min (t.rows - 1)
          in
          rows.(row) <- (iid, p.Geom.x) :: rows.(row))
      order_hint;
    let capacity = Geom.width t.die in
    let ordered =
      Array.to_list rows
      |> List.concat_map (fun members -> List.sort (fun (_, x1) (_, x2) -> compare x1 x2) members)
    in
    let repacked = Array.make t.rows [] in
    let row = ref 0 in
    let used = ref 0.0 in
    List.iter
      (fun (iid, x) ->
        let w = cell_width iid in
        if !used +. w > capacity && !row < t.rows - 1 && repacked.(!row) <> [] then begin
          incr row;
          used := 0.0
        end;
        repacked.(!row) <- (iid, x) :: repacked.(!row);
        used := !used +. w)
      ordered;
    Array.iteri
      (fun r members ->
        let y = t.die.Geom.ly +. ((float_of_int r +. 0.5) *. t.row_height) in
        let x = ref t.die.Geom.lx in
        List.iter
          (fun (iid, _) ->
            let w = cell_width iid in
            Hashtbl.replace t.coords iid { Geom.x = !x +. (w /. 2.0); Geom.y = y };
            x := !x +. w)
          (List.rev members))
      repacked

  (* Returns the placement dump and the number of refinement moves. *)
  let place ?(seed = 1) ?(utilization = 0.65) ?(iterations = 12) nl =
    let rng = Rng.create seed in
    let area = Netlist.total_area nl in
    let row_height = (Library.tech (Netlist.lib nl)).Smt_cell.Tech.row_height in
    let side = Float.max (4.0 *. row_height) (sqrt (area /. utilization)) in
    let rows = max 2 (int_of_float (side /. row_height)) in
    let die =
      { Geom.lx = 0.0; Geom.ly = 0.0; Geom.hx = side; Geom.hy = float_of_int rows *. row_height }
    in
    let t = { nl; die; rows; row_height; coords = Hashtbl.create 997; ports = Hashtbl.create 97 } in
    let spread edge_x ports =
      let n = List.length ports in
      List.iteri
        (fun i (name, _) ->
          let y =
            die.Geom.ly +. ((float_of_int i +. 1.0) /. (float_of_int n +. 1.0) *. Geom.height die)
          in
          Hashtbl.replace t.ports name { Geom.x = edge_x; Geom.y })
        ports
    in
    spread die.Geom.lx (Netlist.inputs nl);
    spread die.Geom.hx (Netlist.outputs nl);
    let level = levels nl in
    let keyed =
      List.map (fun iid -> (iid, (level.(iid), Rng.int rng 1000))) (Netlist.live_insts nl)
      |> List.sort (fun (_, k1) (_, k2) -> compare k1 k2)
      |> List.map fst
    in
    let per_row = max 1 ((List.length keyed + rows - 1) / rows) in
    List.iteri
      (fun i iid ->
        let row = i / per_row in
        let pos = i mod per_row in
        let pos = if row mod 2 = 1 then per_row - 1 - pos else pos in
        let x =
          die.Geom.lx +. ((float_of_int pos +. 0.5) /. float_of_int per_row *. Geom.width die)
        in
        let y = die.Geom.ly +. ((float_of_int (row mod rows) +. 0.5) *. row_height) in
        Hashtbl.replace t.coords iid { Geom.x; Geom.y })
      keyed;
    let neighbours iid =
      let nets =
        List.filter (fun (_, nid) -> not (Netlist.is_clock_net nl nid)) (Netlist.conns nl iid)
      in
      List.concat_map
        (fun (_, nid) ->
          let pts = pin_points t nid in
          match Hashtbl.find_opt t.coords iid with
          | None -> pts
          | Some p -> List.filter (fun q -> q <> p) pts)
        nets
    in
    let moved = ref 0 in
    for _pass = 1 to iterations do
      List.iter
        (fun iid ->
          match neighbours iid with
          | [] -> ()
          | pts ->
            let n = float_of_int (List.length pts) in
            let sx = List.fold_left (fun acc p -> acc +. p.Geom.x) 0.0 pts in
            let sy = List.fold_left (fun acc p -> acc +. p.Geom.y) 0.0 pts in
            let target = { Geom.x = sx /. n; Geom.y = sy /. n } in
            let cur = Hashtbl.find t.coords iid in
            let blended =
              {
                Geom.x = (cur.Geom.x +. target.Geom.x) /. 2.0;
                Geom.y = (cur.Geom.y +. target.Geom.y) /. 2.0;
              }
            in
            let next = clamp_into die blended in
            if next <> cur then incr moved;
            Hashtbl.replace t.coords iid next)
        keyed;
      legalize t keyed
    done;
    (to_string t, !moved)
end
