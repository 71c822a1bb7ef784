module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth

type mode = Active | Standby

(* What a gate drives in standby: its evaluated value, or the value the MT
   cut forces on its output. *)
type standby = Evaluate | Force_one | Force_x

type t = {
  nl : Netlist.t;
  inst_count : int;
  net_count : int;
  (* Combinational gates with a connected output, in topological order. *)
  kinds : Func.kind array;
  pins : int array;  (* four slots per gate: input nets in [Func.input_names] order, -1 = none *)
  outs : int array;
  standby : standby array;
  ffs : (Netlist.inst_id * Netlist.net_id * Netlist.net_id) array;  (* (iid, Q, D), -1 = none *)
  values : Logic.value array;  (* indexed by net id *)
  ff_q : Logic.value array;  (* indexed by instance id *)
}

(* MT logic is cut from ground in standby: its output floats, unless a
   holder (embedded or attached to the net) keeps it at 1. *)
let standby_of nl iid out =
  match (Netlist.cell nl iid).Cell.style with
  | Vth.Plain -> Evaluate
  | Vth.Mt_embedded -> Force_one
  | Vth.Mt_vgnd | Vth.Mt_no_vgnd ->
    if Netlist.holder_of nl out <> None then Force_one else Force_x

let create nl =
  let gates =
    Netlist.topo_order nl
    |> List.filter_map (fun iid ->
           Option.map (fun out -> (iid, out)) (Netlist.output_net nl iid))
    |> Array.of_list
  in
  let kinds = Array.map (fun (iid, _) -> (Netlist.cell nl iid).Cell.kind) gates in
  let pins = Array.make (4 * Array.length gates) (-1) in
  Array.iteri
    (fun g (iid, _) ->
      Array.iteri
        (fun k pin ->
          Option.iter (fun nid -> pins.((4 * g) + k) <- nid) (Netlist.pin_net nl iid pin))
        (Func.input_names kinds.(g)))
    gates;
  let pin_or_none iid pin = Option.value (Netlist.pin_net nl iid pin) ~default:(-1) in
  let ffs =
    Netlist.live_insts nl
    |> List.filter (fun iid -> (Netlist.cell nl iid).Cell.kind = Func.Dff)
    |> List.map (fun iid -> (iid, pin_or_none iid "Q", pin_or_none iid "D"))
    |> Array.of_list
  in
  {
    nl;
    inst_count = Netlist.inst_count nl;
    net_count = Netlist.net_count nl;
    kinds;
    pins;
    outs = Array.map snd gates;
    standby = Array.map (fun (iid, out) -> standby_of nl iid out) gates;
    ffs;
    values = Array.make (Netlist.net_count nl) Logic.X;
    ff_q = Array.make (Netlist.inst_count nl) Logic.F;
  }

let netlist t = t.nl

let set_input t nid v =
  if not (Netlist.is_pi t.nl nid) then
    invalid_arg
      (Printf.sprintf "Simulator.set_input: %s is not a primary input"
         (Netlist.net_name t.nl nid));
  t.values.(nid) <- v

let set_inputs t bindings =
  List.iter
    (fun (name, v) ->
      match Netlist.find_net t.nl name with
      | Some nid -> set_input t nid v
      | None -> invalid_arg (Printf.sprintf "Simulator.set_inputs: no net %s" name))
    bindings

let ff_state t iid = if iid >= 0 && iid < Array.length t.ff_q then t.ff_q.(iid) else Logic.F

let set_ff_state t iid v =
  if iid < 0 || iid >= Array.length t.ff_q then
    invalid_arg (Printf.sprintf "Simulator.set_ff_state: instance %d postdates create" iid);
  t.ff_q.(iid) <- v

let input values pins i =
  let nid = pins.(i) in
  if nid < 0 then Logic.X else values.(nid)

let is_x = function Logic.X -> true | Logic.F | Logic.T -> false
let is_t = function Logic.T -> true | Logic.F | Logic.X -> false

(* Two-valued inputs take a direct boolean evaluation; an X input (or an
   unconnected pin) falls back to the exact X-propagating [Logic.eval]. *)
let eval_gate values kind pins base =
  let a = input values pins base and b = input values pins (base + 1)
  and c = input values pins (base + 2) and d = input values pins (base + 3) in
  let arity = Func.arity kind in
  if is_x a || (arity > 1 && is_x b) || (arity > 2 && is_x c) || (arity > 3 && is_x d) then
    Logic.eval kind (Array.sub [| a; b; c; d |] 0 arity)
  else Logic.of_bool (Func.eval4 kind (is_t a) (is_t b) (is_t c) (is_t d))

let propagate ?(mode = Active) t =
  if Netlist.inst_count t.nl <> t.inst_count || Netlist.net_count t.nl <> t.net_count then
    invalid_arg "Simulator.propagate: the netlist gained instances or nets since create";
  let values = t.values in
  (* Seed flip-flop outputs from state. *)
  Array.iter (fun (iid, q, _) -> if q >= 0 then values.(q) <- t.ff_q.(iid)) t.ffs;
  let standby = match mode with Active -> false | Standby -> true in
  for g = 0 to Array.length t.kinds - 1 do
    values.(t.outs.(g)) <-
      (match if standby then t.standby.(g) else Evaluate with
      | Evaluate -> eval_gate values t.kinds.(g) t.pins (4 * g)
      | Force_one -> Logic.T
      | Force_x -> Logic.X)
  done

let clock_edge t =
  Array.iter (fun (iid, _, d) -> if d >= 0 then t.ff_q.(iid) <- t.values.(d)) t.ffs

let value t nid = t.values.(nid)

let output_values t =
  List.map (fun (name, nid) -> (name, t.values.(nid))) (Netlist.outputs t.nl)

let reset ?(state = Logic.F) t =
  Array.fill t.ff_q 0 (Array.length t.ff_q) Logic.F;
  Array.iter (fun (iid, _, _) -> t.ff_q.(iid) <- state) t.ffs;
  Array.fill t.values 0 (Array.length t.values) Logic.X

let floating_nets t =
  let acc = ref [] in
  for nid = Array.length t.values - 1 downto 0 do
    if t.values.(nid) = Logic.X && (Netlist.driver t.nl nid <> None || Netlist.is_pi t.nl nid)
    then acc := nid :: !acc
  done;
  !acc
