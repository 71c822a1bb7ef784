(** Liberty (.lib) export of the cell library.

    Emits the industry interchange format's essential attributes — per-cell
    area, standby leakage, pin directions and capacitances, and the linear
    timing arc as intrinsic/resistance coefficients — so the library's
    numbers can be inspected with standard tooling or diffed against a real
    kit.  Sized sleep switches present in the library are exported too. *)

val to_string : Library.t -> string

val cell_count : Library.t -> int
(** Number of cells the export will contain. *)

type parsed_cell = {
  p_name : string;
  p_area : float;
  p_leakage : float;
  p_input_pins : (string * float) list;  (** pin name, capacitance *)
  p_output_pins : string list;
}

val parse : ?file:string -> string -> parsed_cell list
(** Subset reader for the text [to_string] emits (group/attribute syntax
    with one level of pin nesting).  Raises [Failure] on malformed input
    with a [file:line:column:] prefix locating the offending token;
    [file] (default ["<liberty>"]) names the source in that prefix. *)
