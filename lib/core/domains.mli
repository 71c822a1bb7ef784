(** Multiple power domains (extension).

    A real SoC gates subsystems independently: the paper's single MTE
    signal becomes one enable per domain, and each domain owns its own
    switch clusters.  This module partitions the MT-cell population
    geometrically into [n] domains, records them in the netlist's domain
    table ({!Smt_netlist.Netlist.add_domain}), rebuilds the switch
    structure per domain on a per-domain MTE input (MTE0, MTE1, ...), and
    evaluates the standby leakage of any sleep subset — the
    partial-standby states a single-MTE design cannot express. *)

val partition :
  ?domains:int ->
  ?activity:Smt_sim.Activity.t ->
  ?params:Cluster.params ->
  Smt_place.Placement.t ->
  unit
(** Split the VGND-style MT-cells into [domains] (default 2) geometric
    groups (balanced k-means on placement), dissolve any existing switch
    structure, and rebuild clusters per domain.  Domain [i] is declared
    as [pd<i>] with enable net [MTE<i>]; its MT-cells and the switches
    built for them are assigned to it through
    {!Smt_netlist.Netlist.set_inst_domain}.  Raises [Invalid_argument]
    when there are no MT-cells, [domains < 1], or a [pd<i>] domain is
    already declared. *)

val standby_leakage : Smt_netlist.Netlist.t -> asleep:string list -> float
(** Total standby leakage (nW) when exactly the listed domains sleep:
    MT-cells of a sleeping domain leak their residual, MT-cells anywhere
    else leak at their active (low-Vth) rate.  Always-on logic and
    switches leak identically in every state. *)
