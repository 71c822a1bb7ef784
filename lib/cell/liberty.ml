let cell_count lib = List.length (Library.cells lib)

let pin_block b ~name ~dir ?cap ?(timing = "") () =
  Buffer.add_string b (Printf.sprintf "    pin(%s) {\n" name);
  Buffer.add_string b (Printf.sprintf "      direction : %s;\n" dir);
  (match cap with
  | Some c -> Buffer.add_string b (Printf.sprintf "      capacitance : %.4f;\n" c)
  | None -> ());
  if timing <> "" then Buffer.add_string b timing;
  Buffer.add_string b "    }\n"

let timing_block (cell : Cell.t) related =
  Printf.sprintf
    "      timing() {\n\
    \        related_pin : \"%s\";\n\
    \        intrinsic_rise : %.4f;\n\
    \        intrinsic_fall : %.4f;\n\
    \        rise_resistance : %.4f;\n\
    \        fall_resistance : %.4f;\n\
    \      }\n"
    related cell.Cell.intrinsic_delay cell.Cell.intrinsic_delay cell.Cell.drive_res
    cell.Cell.drive_res

let emit_cell b (cell : Cell.t) =
  Buffer.add_string b (Printf.sprintf "  cell(%s) {\n" cell.Cell.name);
  Buffer.add_string b (Printf.sprintf "    area : %.4f;\n" cell.Cell.area);
  Buffer.add_string b
    (Printf.sprintf "    cell_leakage_power : %.6f;\n" cell.Cell.leak_standby);
  (match cell.Cell.kind with
  | Func.Dff ->
    Buffer.add_string b "    ff(IQ, IQN) { clocked_on : \"CK\"; next_state : \"D\"; }\n"
  | _ -> ());
  Array.iter
    (fun pin -> pin_block b ~name:pin ~dir:"input" ~cap:cell.Cell.input_cap ())
    (Func.input_names cell.Cell.kind);
  (match cell.Cell.kind with
  | Func.Dff -> pin_block b ~name:"CK" ~dir:"input" ~cap:cell.Cell.input_cap ()
  | Func.Sleep_switch | Func.Holder ->
    pin_block b ~name:"MTE" ~dir:"input" ~cap:cell.Cell.input_cap ()
  | _ ->
    if Vth.style_equal cell.Cell.style Vth.Mt_embedded then
      pin_block b ~name:"MTE" ~dir:"input" ~cap:cell.Cell.input_cap ());
  Array.iter
    (fun pin ->
      let related =
        match Func.input_names cell.Cell.kind with
        | [||] -> "CK"
        | ins -> ins.(0)
      in
      pin_block b ~name:pin ~dir:"output" ~timing:(timing_block cell related) ())
    (Func.output_names cell.Cell.kind);
  Buffer.add_string b "  }\n"

let to_string lib =
  let b = Buffer.create 16384 in
  Buffer.add_string b "library(selective_mt) {\n";
  Buffer.add_string b "  time_unit : \"1ps\";\n";
  Buffer.add_string b "  capacitive_load_unit (1, ff);\n";
  Buffer.add_string b "  leakage_power_unit : \"1nW\";\n";
  let cells =
    List.sort (fun (a : Cell.t) b -> compare a.Cell.name b.Cell.name) (Library.cells lib)
  in
  List.iter (emit_cell b) cells;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- subset reader --- *)

type parsed_cell = {
  p_name : string;
  p_area : float;
  p_leakage : float;
  p_input_pins : (string * float) list;
  p_output_pins : string list;
}

type token =
  | Tword of string
  | Tlbrace
  | Trbrace
  | Tlparen
  | Trparen
  | Tcolon
  | Tsemi

(* Every token carries the 1-based line:column where it starts, so parse
   errors point into the source text instead of just naming a construct. *)
let tokenize ~file text =
  let tokens = ref [] in
  let n = String.length text in
  let i = ref 0 in
  let line = ref 1 and bol = ref 0 in
  let pos () = (!line, !i - !bol + 1) in
  let fail_at (l, c) msg =
    failwith (Printf.sprintf "%s:%d:%d: Liberty.parse: %s" file l c msg)
  in
  let push t = tokens := (t, pos ()) :: !tokens in
  let word_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = '.' || c = '-' || c = '+'
  in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr i;
      incr line;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' || c = ',' then incr i
    else if c = '{' then (push Tlbrace; incr i)
    else if c = '}' then (push Trbrace; incr i)
    else if c = '(' then (push Tlparen; incr i)
    else if c = ')' then (push Trparen; incr i)
    else if c = ':' then (push Tcolon; incr i)
    else if c = ';' then (push Tsemi; incr i)
    else if c = '"' then begin
      let start_pos = pos () in
      let j =
        try String.index_from text (!i + 1) '"'
        with Not_found -> fail_at start_pos "unterminated string"
      in
      tokens := (Tword (String.sub text (!i + 1) (j - !i - 1)), start_pos) :: !tokens;
      i := j + 1
    end
    else if word_char c then begin
      let start = !i and start_pos = pos () in
      while !i < n && word_char text.[!i] do incr i done;
      tokens := (Tword (String.sub text start (!i - start)), start_pos) :: !tokens
    end
    else fail_at (pos ()) (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !tokens

let parse ?(file = "<liberty>") text =
  let tokens = ref (tokenize ~file text) in
  let last_pos = ref (1, 1) in
  let fail msg =
    let l, c = !last_pos in
    failwith (Printf.sprintf "%s:%d:%d: Liberty.parse: %s" file l c msg)
  in
  let next () =
    match !tokens with
    | (t, pos) :: rest ->
      tokens := rest;
      last_pos := pos;
      t
    | [] -> fail "unexpected end of input"
  in
  let peek () = match !tokens with (t, _) :: _ -> Some t | [] -> None in
  (* skip a balanced { ... } block *)
  let rec skip_block depth =
    match next () with
    | Tlbrace -> skip_block (depth + 1)
    | Trbrace -> if depth > 1 then skip_block (depth - 1)
    | Tword _ | Tlparen | Trparen | Tcolon | Tsemi -> skip_block depth
  in
  let parse_float s =
    match float_of_string_opt s with Some f -> f | None -> fail (Printf.sprintf "bad number %S" s)
  in
  let cells = ref [] in
  (* inside a pin group: read attributes until the matching brace *)
  let parse_pin name =
    let dir = ref "" and cap = ref 0.0 in
    let rec attrs () =
      match next () with
      | Trbrace -> ()
      | Tword "direction" ->
        (match (next (), next (), next ()) with
        | Tcolon, Tword d, Tsemi -> dir := d
        | _ -> fail "bad direction attribute (expected direction : <dir> ;)");
        attrs ()
      | Tword "capacitance" ->
        (match (next (), next (), next ()) with
        | Tcolon, Tword v, Tsemi -> cap := parse_float v
        | _ -> fail "bad capacitance attribute (expected capacitance : <value> ;)");
        attrs ()
      | Tword "timing" ->
        (match (next (), next (), next ()) with
        | Tlparen, Trparen, Tlbrace -> skip_block 1
        | _ -> fail "bad timing group (expected timing() { ... })");
        attrs ()
      | Tword _ | Tlbrace | Tlparen | Trparen | Tcolon | Tsemi -> attrs ()
    in
    attrs ();
    (name, !dir, !cap)
  in
  let parse_cell name =
    let area = ref 0.0 and leak = ref 0.0 in
    let ins = ref [] and outs = ref [] in
    let rec body () =
      match next () with
      | Trbrace -> ()
      | Tword "area" ->
        (match (next (), next (), next ()) with
        | Tcolon, Tword v, Tsemi -> area := parse_float v
        | _ -> fail "bad area attribute (expected area : <value> ;)");
        body ()
      | Tword "cell_leakage_power" ->
        (match (next (), next (), next ()) with
        | Tcolon, Tword v, Tsemi -> leak := parse_float v
        | _ -> fail "bad leakage attribute (expected cell_leakage_power : <value> ;)");
        body ()
      | Tword "pin" ->
        (match (next (), next (), next (), next ()) with
        | Tlparen, Tword pin_name, Trparen, Tlbrace ->
          let name, dir, cap = parse_pin pin_name in
          if String.equal dir "input" then ins := (name, cap) :: !ins
          else outs := name :: !outs
        | _ -> fail "bad pin group (expected pin(<name>) { ... })");
        body ()
      | Tword "ff" ->
        (match (next (), next (), next (), next (), next ()) with
        | Tlparen, Tword _, Tword _, Trparen, Tlbrace -> skip_block 1
        | _ -> fail "bad ff group (expected ff(<iq>, <iqn>) { ... })");
        body ()
      | Tword _ | Tlbrace | Tlparen | Trparen | Tcolon | Tsemi -> body ()
    in
    body ();
    {
      p_name = name;
      p_area = !area;
      p_leakage = !leak;
      p_input_pins = List.rev !ins;
      p_output_pins = List.rev !outs;
    }
  in
  let rec top () =
    match peek () with
    | None -> ()
    | Some _ -> (
      match next () with
      | Tword "cell" -> (
        match (next (), next (), next (), next ()) with
        | Tlparen, Tword name, Trparen, Tlbrace ->
          cells := parse_cell name :: !cells;
          top ()
        | _ -> fail "bad cell header (expected cell(<name>) {)")
      | Tword _ | Tlbrace | Trbrace | Tlparen | Trparen | Tcolon | Tsemi -> top ())
  in
  top ();
  List.rev !cells
