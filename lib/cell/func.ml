type kind =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nand4
  | Nor2
  | Nor3
  | And2
  | And3
  | Or2
  | Or3
  | Xor2
  | Xnor2
  | Aoi21
  | Oai21
  | Mux2
  | Dff
  | Clkbuf
  | Sleep_switch
  | Holder

let all =
  [
    Inv; Buf; Nand2; Nand3; Nand4; Nor2; Nor3; And2; And3; Or2; Or3; Xor2;
    Xnor2; Aoi21; Oai21; Mux2; Dff; Clkbuf; Sleep_switch; Holder;
  ]

let arity = function
  | Inv | Buf | Clkbuf -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> 2
  | Nand3 | Nor3 | And3 | Or3 | Aoi21 | Oai21 | Mux2 -> 3
  | Nand4 -> 4
  | Dff -> 1
  | Sleep_switch | Holder -> 0

let input_names = function
  | Inv | Buf | Clkbuf -> [| "A" |]
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> [| "A"; "B" |]
  | Nand3 | Nor3 | And3 | Or3 -> [| "A"; "B"; "C" |]
  | Nand4 -> [| "A"; "B"; "C"; "D" |]
  | Aoi21 | Oai21 -> [| "A"; "B"; "C" |]
  | Mux2 -> [| "A"; "B"; "S" |]
  | Dff -> [| "D" |]
  | Sleep_switch | Holder -> [||]

let output_names = function
  | Dff -> [| "Q" |]
  | Sleep_switch -> [||]
  | Holder -> [||]
  | Inv | Buf | Clkbuf | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | And2 | And3
  | Or2 | Or3 | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 ->
    [| "Z" |]

let is_sequential = function
  | Dff -> true
  | Inv | Buf | Clkbuf | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | And2 | And3
  | Or2 | Or3 | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 | Sleep_switch | Holder ->
    false

let is_infrastructure = function
  | Sleep_switch | Holder -> true
  | Inv | Buf | Clkbuf | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | And2 | And3
  | Or2 | Or3 | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 | Dff ->
    false

let eval4 kind a b c d =
  match kind with
  | Inv -> not a
  | Buf | Clkbuf -> a
  | Nand2 -> not (a && b)
  | Nand3 -> not (a && b && c)
  | Nand4 -> not (a && b && c && d)
  | Nor2 -> not (a || b)
  | Nor3 -> not (a || b || c)
  | And2 -> a && b
  | And3 -> a && b && c
  | Or2 -> a || b
  | Or3 -> a || b || c
  | Xor2 -> a <> b
  | Xnor2 -> a = b
  | Aoi21 -> not ((a && b) || c)
  | Oai21 -> not ((a || b) && c)
  | Mux2 -> if c then b else a
  | Dff -> invalid_arg "Func.eval: Dff is sequential"
  | Sleep_switch -> invalid_arg "Func.eval: Sleep_switch has no logic function"
  | Holder -> invalid_arg "Func.eval: Holder has no logic function"

let eval kind inputs =
  let n = Array.length inputs in
  if n <> arity kind && not (is_sequential kind || is_infrastructure kind) then
    invalid_arg (Printf.sprintf "Func.eval: %d inputs given, %d expected" n (arity kind));
  let bit i = i < n && inputs.(i) in
  eval4 kind (bit 0) (bit 1) (bit 2) (bit 3)

let to_string = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand2 -> "NAND2"
  | Nand3 -> "NAND3"
  | Nand4 -> "NAND4"
  | Nor2 -> "NOR2"
  | Nor3 -> "NOR3"
  | And2 -> "AND2"
  | And3 -> "AND3"
  | Or2 -> "OR2"
  | Or3 -> "OR3"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"
  | Mux2 -> "MUX2"
  | Dff -> "DFF"
  | Clkbuf -> "CLKBUF"
  | Sleep_switch -> "SWITCH"
  | Holder -> "HOLDER"

let of_string s =
  let canon = String.uppercase_ascii s in
  List.find_opt (fun k -> String.equal (to_string k) canon) all
