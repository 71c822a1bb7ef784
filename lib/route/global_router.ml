module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Geom = Smt_util.Geom
module Tech = Smt_cell.Tech
module Library = Smt_cell.Library

type grid = {
  cols : int;
  rows : int;
  gcell : float;
  origin_x : float;
  origin_y : float;
  (* usage of the edge between (c,r) and (c+1,r): index r*(cols-1)+c *)
  h_usage : int array;
  (* usage of the edge between (c,r) and (c,r+1): index c*(rows-1)+r *)
  v_usage : int array;
  capacity : int;
}

type result = {
  grid : grid;
  lengths : float array;  (* per net id *)
  routed : int;
}

let gcell_of grid (p : Geom.point) =
  let c = int_of_float ((p.Geom.x -. grid.origin_x) /. grid.gcell) in
  let r = int_of_float ((p.Geom.y -. grid.origin_y) /. grid.gcell) in
  (max 0 (min (grid.cols - 1) c), max 0 (min (grid.rows - 1) r))

let h_index grid c r = (r * (grid.cols - 1)) + c
let v_index grid c r = (c * (grid.rows - 1)) + r

(* Cost and commitment of a straight run of gcell edges. *)
let run_cost grid ~horizontal ~fixed ~from_ ~to_ =
  let lo = min from_ to_ and hi = max from_ to_ in
  let cost = ref 0 in
  for i = lo to hi - 1 do
    let u =
      if horizontal then grid.h_usage.(h_index grid i fixed)
      else grid.v_usage.(v_index grid fixed i)
    in
    (* congestion-aware: crossing a full edge costs quadratically more *)
    cost := !cost + 1 + (u * u / (grid.capacity * grid.capacity)) + (u / grid.capacity * 4)
  done;
  !cost

let commit_run grid ~horizontal ~fixed ~from_ ~to_ =
  let lo = min from_ to_ and hi = max from_ to_ in
  for i = lo to hi - 1 do
    if horizontal then begin
      let idx = h_index grid i fixed in
      grid.h_usage.(idx) <- grid.h_usage.(idx) + 1
    end
    else begin
      let idx = v_index grid fixed i in
      grid.v_usage.(idx) <- grid.v_usage.(idx) + 1
    end
  done

(* Route one 2-pin connection with the cheaper L-shape; returns gcell
   segment count. *)
let route_two_pin grid (c1, r1) (c2, r2) =
  if c1 = c2 && r1 = r2 then 0
  else begin
    (* L via (c2, r1) : horizontal first *)
    let cost_a =
      run_cost grid ~horizontal:true ~fixed:r1 ~from_:c1 ~to_:c2
      + run_cost grid ~horizontal:false ~fixed:c2 ~from_:r1 ~to_:r2
    in
    (* L via (c1, r2) : vertical first *)
    let cost_b =
      run_cost grid ~horizontal:false ~fixed:c1 ~from_:r1 ~to_:r2
      + run_cost grid ~horizontal:true ~fixed:r2 ~from_:c1 ~to_:c2
    in
    if cost_a <= cost_b then begin
      commit_run grid ~horizontal:true ~fixed:r1 ~from_:c1 ~to_:c2;
      commit_run grid ~horizontal:false ~fixed:c2 ~from_:r1 ~to_:r2
    end
    else begin
      commit_run grid ~horizontal:false ~fixed:c1 ~from_:r1 ~to_:r2;
      commit_run grid ~horizontal:true ~fixed:r2 ~from_:c1 ~to_:c2
    end;
    abs (c2 - c1) + abs (r2 - r1)
  end

let route ?(gcell = 10.0) ?(capacity = 24) place =
  let nl = Placement.netlist place in
  let die = Placement.die place in
  let cols = max 2 (int_of_float (ceil (Geom.width die /. gcell))) in
  let rows = max 2 (int_of_float (ceil (Geom.height die /. gcell))) in
  let grid =
    {
      cols;
      rows;
      gcell;
      origin_x = die.Geom.lx;
      origin_y = die.Geom.ly;
      h_usage = Array.make (rows * (cols - 1)) 0;
      v_usage = Array.make (cols * (rows - 1)) 0;
      capacity;
    }
  in
  let lengths = Array.make (Netlist.net_count nl) 0.0 in
  (* order: small nets first so big nets detour around them *)
  let nets = ref [] in
  Netlist.iter_nets nl (fun nid ->
      let pts = Placement.pin_points place nid in
      if List.length pts >= 2 then begin
        let box = Geom.bbox_of_points pts in
        nets := (nid, Geom.hpwl box, pts) :: !nets
      end);
  let ordered = List.sort (fun (_, a, _) (_, b, _) -> compare a b) !nets in
  let routed = ref 0 in
  List.iter
    (fun (nid, _, pts) ->
      let segments = ref 0 in
      List.iter
        (fun (a, b) ->
          segments := !segments + route_two_pin grid (gcell_of grid a) (gcell_of grid b))
        (Geom.spanning_edges pts);
      (* a same-gcell net still has local wiring of roughly its HPWL *)
      let local = if !segments = 0 then Geom.hpwl (Geom.bbox_of_points pts) else 0.0 in
      lengths.(nid) <- (float_of_int !segments *. gcell) +. local;
      incr routed)
    ordered;
  { grid; lengths; routed = !routed }

let routed_nets t = t.routed
let total_length t = Array.fold_left ( +. ) 0.0 t.lengths

let overflow t =
  let count usage =
    Array.fold_left (fun acc u -> if u > t.grid.capacity then acc + 1 else acc) 0 usage
  in
  count t.grid.h_usage + count t.grid.v_usage

let max_congestion t =
  let worst usage = Array.fold_left max 0 usage in
  float_of_int (max (worst t.grid.h_usage) (worst t.grid.v_usage))
  /. float_of_int t.grid.capacity

let net_length t nid = if nid < Array.length t.lengths then t.lengths.(nid) else 0.0

let detour_factor t place =
  let nl = Placement.netlist place in
  let hpwl = ref 0.0 and routed = ref 0.0 in
  Netlist.iter_nets nl (fun nid ->
      let h = Placement.net_hpwl place nid in
      if h > 0.0 && net_length t nid > 0.0 then begin
        hpwl := !hpwl +. h;
        routed := !routed +. net_length t nid
      end);
  if !hpwl = 0.0 then 1.0 else Float.max 1.0 (!routed /. !hpwl)

let to_parasitics t place =
  let nl = Placement.netlist place in
  let tech = Library.tech (Netlist.lib nl) in
  Parasitics.of_lengths tech Parasitics.Extracted
    (Array.init (Netlist.net_count nl) (fun nid -> net_length t nid))

(* Effective (congestion-weighted) length of one straight run. *)
let run_weighted_length t ~horizontal ~fixed ~from_ ~to_ =
  let grid = t.grid in
  let lo = min from_ to_ and hi = max from_ to_ in
  let total = ref 0.0 in
  for i = lo to hi - 1 do
    let u =
      if horizontal then grid.h_usage.(h_index grid i fixed)
      else grid.v_usage.(v_index grid fixed i)
    in
    total :=
      !total +. (grid.gcell *. (1.0 +. (float_of_int u /. float_of_int grid.capacity)))
  done;
  !total

let congested_length t pts =
  let grid = t.grid in
  let edge a b =
    let c1, r1 = gcell_of grid a and c2, r2 = gcell_of grid b in
    if c1 = c2 && r1 = r2 then Geom.manhattan a b
    else begin
      let via_a =
        run_weighted_length t ~horizontal:true ~fixed:r1 ~from_:c1 ~to_:c2
        +. run_weighted_length t ~horizontal:false ~fixed:c2 ~from_:r1 ~to_:r2
      in
      let via_b =
        run_weighted_length t ~horizontal:false ~fixed:c1 ~from_:r1 ~to_:r2
        +. run_weighted_length t ~horizontal:true ~fixed:r2 ~from_:c1 ~to_:c2
      in
      Float.min via_a via_b
    end
  in
  (* one tree: [sum Geom.manhattan] is [Geom.spanning_length pts], bit for bit *)
  let edges = Geom.spanning_edges pts in
  let sum f = List.fold_left (fun acc (a, b) -> acc +. f a b) 0.0 edges in
  Float.max (sum edge) (sum Geom.manhattan)
