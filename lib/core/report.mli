(** Human-readable sign-off reports (timing summary, power, area).

    The text formats follow the conventions of commercial sign-off tools:
    the power report splits standby leakage by contributor; the area report
    splits by cell category and names the heaviest cell kinds.  The
    critical-path tables come from {!Explain.paths}, which reads the flow's
    own final analysis. *)

val power : Smt_netlist.Netlist.t -> string
(** Standby leakage breakdown, with each contributor's share. *)

val area : Smt_netlist.Netlist.t -> string
(** Area by category plus the top cell kinds by total area. *)

val summary : Smt_sta.Sta.t -> string
(** One-paragraph health check: WNS/TNS/hold, endpoint count. *)
