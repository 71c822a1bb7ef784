module Netlist = Smt_netlist.Netlist
module Rng = Smt_util.Rng

type t = {
  toggles_per_cycle : float array;
  cycles : int;
}

let estimate ?(cycles = 200) ?(seed = 7) nl =
  let sim = Simulator.create nl in
  let rng = Rng.create seed in
  let inputs =
    Netlist.inputs nl
    |> List.filter_map (fun (_, nid) -> if Netlist.is_clock_net nl nid then None else Some nid)
    |> Array.of_list
  in
  (* instances with an output, and that output, in [iter_insts] order *)
  let watched =
    Netlist.live_insts nl
    |> List.filter_map (fun iid -> Option.map (fun out -> (iid, out)) (Netlist.output_net nl iid))
    |> Array.of_list
  in
  let w_iid = Array.map fst watched and w_out = Array.map snd watched in
  let toggles = Array.make (Netlist.inst_count nl) 0 in
  let last = Array.make (Array.length watched) Logic.X in
  Simulator.reset sim;
  for cycle = 0 to cycles - 1 do
    (* one draw per input, in [Netlist.inputs] order *)
    Array.iter (fun nid -> Simulator.set_input sim nid (Logic.of_bool (Rng.bool rng))) inputs;
    Simulator.propagate sim;
    for k = 0 to Array.length w_out - 1 do
      let v = Simulator.value sim w_out.(k) in
      if cycle > 0 && not (Logic.equal v last.(k)) then begin
        let iid = w_iid.(k) in
        toggles.(iid) <- toggles.(iid) + 1
      end;
      last.(k) <- v
    done;
    Simulator.clock_edge sim
  done;
  let denom = float_of_int (max 1 (cycles - 1)) in
  { toggles_per_cycle = Array.map (fun c -> float_of_int c /. denom) toggles; cycles }

let factor t iid =
  if iid < Array.length t.toggles_per_cycle then t.toggles_per_cycle.(iid) else 0.0

let average t =
  let n = Array.length t.toggles_per_cycle in
  if n = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 t.toggles_per_cycle /. float_of_int n
