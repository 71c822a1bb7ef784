module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func

let iopath_instances sta =
  let nl = Sta.netlist sta in
  List.filter
    (fun iid ->
      let kind = (Netlist.cell nl iid).Cell.kind in
      Array.length (Func.output_names kind) > 0)
    (Netlist.live_insts nl)

let instance_count sta = List.length (iopath_instances sta)

let to_string ~t ~design =
  let nl = Sta.netlist t in
  let b = Buffer.create 8192 in
  Buffer.add_string b "(DELAYFILE\n";
  Buffer.add_string b "  (SDFVERSION \"3.0\")\n";
  Buffer.add_string b (Printf.sprintf "  (DESIGN \"%s\")\n" design);
  Buffer.add_string b "  (TIMESCALE 1ps)\n";
  List.iter
    (fun iid ->
      let cell = Netlist.cell nl iid in
      let d = Sta.used_delay t iid in
      let input =
        match Func.input_names cell.Cell.kind with
        | [||] -> (match cell.Cell.kind with Func.Dff -> "CK" | _ -> "A")
        | ins -> ins.(0)
      in
      let output = (Func.output_names cell.Cell.kind).(0) in
      Buffer.add_string b
        (Printf.sprintf
           "  (CELL (CELLTYPE \"%s\") (INSTANCE %s)\n\
           \    (DELAY (ABSOLUTE (IOPATH %s %s (%.1f) (%.1f))))\n\
           \  )\n"
           cell.Cell.name (Netlist.inst_name nl iid) input output d d))
    (iopath_instances t);
  Buffer.add_string b ")\n";
  Buffer.contents b

