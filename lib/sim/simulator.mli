(** Levelized netlist simulator.

    Active mode evaluates the logic as usual.  Standby mode models the
    sleep state: every MT-cell's output floats (X) — unless the net carries
    an output holder, which forces it to 1, the holder polarity the paper
    specifies — while plain high-Vth cells keep evaluating whatever reaches
    them.  This lets tests observe exactly the floating-input hazard that
    holder insertion must eliminate.

    [create] compiles the netlist: it resolves every gate's kind, input
    and output nets, standby behaviour and every flip-flop's Q and D nets
    into flat arrays once, so [propagate] never looks a pin up by name.
    The simulator is therefore a snapshot: edits made to the netlist after
    [create] are not seen.  [propagate] raises [Invalid_argument] when the
    netlist has gained instances or nets since; other edits (rewiring,
    cell swaps, holders) are not detected, so build a new simulator after
    any edit.  The module keeps no global mutable state, so simulators
    may run concurrently on separate domains. *)

type mode = Active | Standby

type t

val create : Smt_netlist.Netlist.t -> t
(** Compiles the netlist as it is now. Raises
    [Smt_netlist.Netlist.Combinational_cycle]. *)

val netlist : t -> Smt_netlist.Netlist.t

val set_input : t -> Smt_netlist.Netlist.net_id -> Logic.value -> unit
(** Only primary-input nets may be set; raises [Invalid_argument]. *)

val set_inputs : t -> (string * Logic.value) list -> unit
(** By port name; unknown names raise [Invalid_argument]. *)

val propagate : ?mode:mode -> t -> unit
(** Combinational settle from current inputs and flip-flop states.
    Raises [Invalid_argument] if the netlist's instance or net count
    changed since [create]. *)

val clock_edge : t -> unit
(** Latch every flip-flop's D into its state (call after [propagate]). *)

val value : t -> Smt_netlist.Netlist.net_id -> Logic.value
val output_values : t -> (string * Logic.value) list

val ff_state : t -> Smt_netlist.Netlist.inst_id -> Logic.value
(** A flip-flop's state; 0 for any instance never set. *)

val set_ff_state : t -> Smt_netlist.Netlist.inst_id -> Logic.value -> unit
(** Raises [Invalid_argument] for an instance id added after [create]. *)

val reset : ?state:Logic.value -> t -> unit
(** Reset flip-flop states (default all 0) and clear net values. *)

val floating_nets : t -> Smt_netlist.Netlist.net_id list
(** After a standby [propagate]: nets that settle to X — the nets whose
    downstream leakage the paper's holders suppress. *)
