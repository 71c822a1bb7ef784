(** SDF (Standard Delay Format) export of analyzed timing.

    Writes an IOPATH entry per instance with the delay STA actually used
    (wire model, bounce derate, and slew effects included), so the timing
    view of the design can be consumed by external tools or diffed between
    corners/stages. *)

val to_string : t:Sta.t -> design:string -> string

val instance_count : Sta.t -> int
(** Number of IOPATH-bearing instances the export will contain. *)
