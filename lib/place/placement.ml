module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Geom = Smt_util.Geom
module Rng = Smt_util.Rng
module Library = Smt_cell.Library
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Log = Smt_obs.Log

let m_runs = Metrics.counter "place.runs"
let m_iterations = Metrics.counter "place.iterations"
let m_moves = Metrics.counter "place.moves"

type t = {
  nl : Netlist.t;
  die : Geom.bbox;
  rows : int;
  row_height : float;
  coords : (Netlist.inst_id, Geom.point) Hashtbl.t;
  ports : (string, Geom.point) Hashtbl.t;
}

let netlist t = t.nl
let die t = t.die
let row_count t = t.rows

let inst_point t iid =
  match Hashtbl.find_opt t.coords iid with
  | Some p -> p
  | None -> raise Not_found

let inst_point_opt t iid = Hashtbl.find_opt t.coords iid

let clamp_into die (p : Geom.point) =
  {
    Geom.x = Geom.clamp p.Geom.x ~lo:die.Geom.lx ~hi:die.Geom.hx;
    Geom.y = Geom.clamp p.Geom.y ~lo:die.Geom.ly ~hi:die.Geom.hy;
  }

let place_inst t iid p = Hashtbl.replace t.coords iid (clamp_into t.die p)

let port_point t name = Hashtbl.find_opt t.ports name

(* Everything on a net in [pin_points] order, unresolved: the driver,
   sink and holder instances (placed or not), then the port pad. *)
let net_members t nid =
  let nl = t.nl in
  let driver = match Netlist.driver nl nid with Some p -> [ p.Netlist.inst ] | None -> [] in
  let sinks = List.map (fun (p : Netlist.pin) -> p.Netlist.inst) (Netlist.sinks nl nid) in
  let holder = Option.to_list (Netlist.holder_of nl nid) in
  let pad =
    if Netlist.is_pi nl nid || Netlist.is_po nl nid then
      Hashtbl.find_opt t.ports (Netlist.net_name nl nid)
    else None
  in
  (driver @ sinks @ holder, pad)

let pin_points t nid =
  let insts, pad = net_members t nid in
  List.filter_map (Hashtbl.find_opt t.coords) insts @ Option.to_list pad

let net_hpwl t nid =
  match pin_points t nid with
  | [] | [ _ ] -> 0.0
  | pts -> Geom.hpwl (Geom.bbox_of_points pts)

let total_hpwl t =
  let acc = ref 0.0 in
  Netlist.iter_nets t.nl (fun nid -> acc := !acc +. net_hpwl t nid);
  !acc

let centroid t insts =
  let n, sx, sy =
    List.fold_left
      (fun ((n, sx, sy) as acc) iid ->
        match Hashtbl.find_opt t.coords iid with
        | Some p -> (n + 1, sx +. p.Geom.x, sy +. p.Geom.y)
        | None -> acc)
      (0, 0.0, 0.0) insts
  in
  if n = 0 then Geom.center t.die
  else { Geom.x = sx /. float_of_int n; Geom.y = sy /. float_of_int n }

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

let of_string nl text =
  let lines = String.split_on_char '\n' text in
  let die = ref None and rows = ref 0 in
  let ports = Hashtbl.create 97 and coords = Hashtbl.create 997 in
  let bad line = failwith (Printf.sprintf "Placement.of_string: bad line %S" line) in
  let f s line = match float_of_string_opt s with Some v -> v | None -> bad line in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
      | [] -> ()
      | [ "DIE"; lx; ly; hx; hy; "ROWS"; r ] ->
        die := Some { Geom.lx = f lx line; ly = f ly line; hx = f hx line; hy = f hy line };
        rows := (match int_of_string_opt r with Some v -> v | None -> bad line)
      | [ "PORT"; name; x; y ] ->
        Hashtbl.replace ports name { Geom.x = f x line; Geom.y = f y line }
      | [ "INST"; name; x; y ] -> (
        match Netlist.find_inst nl name with
        | Some iid -> Hashtbl.replace coords iid { Geom.x = f x line; Geom.y = f y line }
        | None -> failwith (Printf.sprintf "Placement.of_string: unknown instance %s" name))
      | _ -> bad line)
    lines;
  match !die with
  | None -> failwith "Placement.of_string: missing DIE header"
  | Some die ->
    let tech = Library.tech (Netlist.lib nl) in
    { nl; die; rows = max 1 !rows; row_height = tech.Smt_cell.Tech.row_height; coords; ports }

(* Longest-path logic level per instance; flip-flops level 0. *)
let levels nl =
  let order = Netlist.topo_order nl in
  let n = Netlist.inst_count nl in
  let level = Array.make n 0 in
  List.iter
    (fun iid ->
      let deep =
        List.fold_left (fun acc pred -> max acc (level.(pred) + 1)) 0 (Netlist.fanin_insts nl iid)
      in
      level.(iid) <- deep)
    order;
  level

(* Row legalization of the cells [keyed], whose widths are [widths] (same
   order), at [xs]/[ys] (by instance id), in place.  Bucket the cells into
   rows by y, then walk them in (row, x) order, ties latest in [keyed]
   first, refilling the rows sequentially and never exceeding the row
   capacity, and pack each row left to right.  Total cell width is at most
   utilization * rows * capacity, so the greedy fill always fits (the last
   row absorbs any remainder). *)
let legalize t keyed widths xs ys =
  let die = t.die in
  let row_of iid =
    int_of_float ((ys.(iid) -. die.Geom.ly) /. t.row_height) |> max 0 |> min (t.rows - 1)
  in
  let rows = Array.map row_of keyed in
  let order = Array.init (Array.length keyed) Fun.id in
  Array.stable_sort
    (fun i j ->
      match Int.compare rows.(i) rows.(j) with
      | 0 -> (
        match Float.compare xs.(keyed.(i)) xs.(keyed.(j)) with 0 -> Int.compare j i | c -> c)
      | c -> c)
    order;
  let capacity = Geom.width die in
  let row = ref 0 and used = ref 0.0 and x = ref die.Geom.lx in
  Array.iteri
    (fun k i ->
      let w = widths.(i) in
      if !used +. w > capacity && !row < t.rows - 1 && k > 0 then begin
        incr row;
        used := 0.0;
        x := die.Geom.lx
      end;
      let iid = keyed.(i) in
      xs.(iid) <- !x +. (w /. 2.0);
      ys.(iid) <- die.Geom.ly +. ((float_of_int !row +. 0.5) *. t.row_height);
      x := !x +. w;
      used := !used +. w)
    order

(* The lists [f 0 .. f (n - 1)] flattened, with the start of each one's
   slice: list [i] is [flat.(start.(i)) .. flat.(start.(i + 1) - 1)]. *)
let csr n f =
  let lists = Array.init n f in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun i l -> start.(i + 1) <- start.(i) + List.length l) lists;
  (start, Array.of_list (List.concat (Array.to_list lists)))

let place ?(seed = 1) ?(utilization = 0.65) ?(iterations = 12) nl =
  Trace.with_span "Placement.place"
    ~args:[ ("design", Netlist.design_name nl); ("iterations", string_of_int iterations) ]
  @@ fun () ->
  Metrics.incr m_runs;
  let rng = Rng.create seed in
  let area = Netlist.total_area nl in
  let tech = Library.tech (Netlist.lib nl) in
  let row_height = tech.Smt_cell.Tech.row_height in
  let side = Float.max (4.0 *. row_height) (sqrt (area /. utilization)) in
  let rows = max 2 (int_of_float (side /. row_height)) in
  let die =
    { Geom.lx = 0.0; Geom.ly = 0.0; Geom.hx = side; Geom.hy = float_of_int rows *. row_height }
  in
  let t = { nl; die; rows; row_height; coords = Hashtbl.create 997; ports = Hashtbl.create 97 } in
  (* Ports on the west (inputs) and east (outputs) edges. *)
  let spread edge_x ports =
    let n = List.length ports in
    List.iteri
      (fun i (name, _) ->
        let y = die.Geom.ly +. ((float_of_int i +. 1.0) /. (float_of_int n +. 1.0) *. Geom.height die) in
        Hashtbl.replace t.ports name { Geom.x = edge_x; Geom.y })
      ports
  in
  spread die.Geom.lx (Netlist.inputs nl);
  spread die.Geom.hx (Netlist.outputs nl);
  (* Coordinates live in [xs]/[ys], by instance id, until the end. *)
  let n = Netlist.inst_count nl in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  (* Constructive placement: sweep by logic level, snake through rows. *)
  let level = levels nl in
  let keyed =
    List.map (fun iid -> (iid, (level.(iid), Rng.int rng 1000))) (Netlist.live_insts nl)
    |> List.sort (fun (_, k1) (_, k2) -> compare k1 k2)
    |> List.map fst |> Array.of_list
  in
  let per_row = max 1 ((Array.length keyed + rows - 1) / rows) in
  Array.iteri
    (fun i iid ->
      let row = i / per_row in
      let pos = i mod per_row in
      let pos = if row mod 2 = 1 then per_row - 1 - pos else pos in
      xs.(iid) <-
        die.Geom.lx +. ((float_of_int pos +. 0.5) /. float_of_int per_row *. Geom.width die);
      ys.(iid) <- die.Geom.ly +. ((float_of_int (row mod rows) +. 0.5) *. row_height))
    keyed;
  (* Force-directed refinement: move every cell toward the centroid of its
     neighbours (connected instances and port pads), then legalize rows.
     Connectivity is resolved once: a net's slice of [members] holds its
     [pin_points] in order, an entry [i >= 0] naming instance [i] and
     [-1 - k] port pad [k]; an instance's slice of [inst_nets] holds its
     nets in [conns] order, less the clock net, which connects everything.
     Cells move in place, so a cell sees the cells moved before it in the
     same pass. *)
  let placed = Array.make n false in
  Array.iter (fun iid -> placed.(iid) <- true) keyed;
  let pads = ref [] and pad_count = ref 0 in
  let pad_entry = function
    | None -> []
    | Some p ->
      let k = !pad_count in
      pads := p :: !pads;
      incr pad_count;
      [ -1 - k ]
  in
  let net_start, members =
    csr (Netlist.net_count nl) (fun nid ->
        if Netlist.is_clock_net nl nid then []
        else
          let insts, pad = net_members t nid in
          List.filter (fun iid -> placed.(iid)) insts @ pad_entry pad)
  in
  let pads = Array.of_list (List.rev !pads) in
  let inst_start, inst_nets =
    csr n (fun iid ->
        List.filter_map
          (fun (_, nid) -> if Netlist.is_clock_net nl nid then None else Some nid)
          (Netlist.conns nl iid))
  in
  let widths = Array.map (fun iid -> (Netlist.cell nl iid).Cell.area /. row_height) keyed in
  let moved = ref 0 in
  for _pass = 1 to iterations do
    Metrics.incr m_iterations;
    Array.iter
      (fun iid ->
        let px = xs.(iid) and py = ys.(iid) in
        let pts = ref 0 and sx = ref 0.0 and sy = ref 0.0 in
        for k = inst_start.(iid) to inst_start.(iid + 1) - 1 do
          let nid = inst_nets.(k) in
          for j = net_start.(nid) to net_start.(nid + 1) - 1 do
            let m = members.(j) in
            let qx = if m >= 0 then xs.(m) else pads.(-1 - m).Geom.x in
            let qy = if m >= 0 then ys.(m) else pads.(-1 - m).Geom.y in
            (* points at the cell's own position do not pull it *)
            if not (qx = px && qy = py) then begin
              incr pts;
              sx := !sx +. qx;
              sy := !sy +. qy
            end
          done
        done;
        if !pts > 0 then begin
          let k = float_of_int !pts in
          let blended =
            { Geom.x = (px +. (!sx /. k)) /. 2.0; Geom.y = (py +. (!sy /. k)) /. 2.0 }
          in
          let next = clamp_into die blended in
          if not (next.Geom.x = px && next.Geom.y = py) then incr moved;
          xs.(iid) <- next.Geom.x;
          ys.(iid) <- next.Geom.y
        end)
      keyed;
    legalize t keyed widths xs ys
  done;
  Array.iter
    (fun iid -> Hashtbl.replace t.coords iid { Geom.x = xs.(iid); Geom.y = ys.(iid) })
    keyed;
  Metrics.incr ~by:!moved m_moves;
  if Log.enabled Log.Debug then
    Log.debug "place" "placed"
      ~fields:
        [
          ("design", Netlist.design_name nl);
          ("cells", string_of_int (Array.length keyed));
          ("iterations", string_of_int iterations);
          ("moves", string_of_int !moved);
          ("hpwl", Printf.sprintf "%.1f" (total_hpwl t));
        ];
  t
