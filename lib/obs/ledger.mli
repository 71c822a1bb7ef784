(** Append-only JSONL run ledger: a durable record of what ran, with
    what inputs, and what QoR came out.

    Each completed [smt_flow run] / [bench-snapshot] / [lint] invocation
    appends one schema-versioned line carrying provenance (tool version,
    circuit, technique, guard, job count, an argv hash, and an injected
    timestamp) plus the run's payload: per-workload QoR fields, work
    counters, per-stage wall-clock, and — when profiling was on — the
    per-stage GC attribution from {!Prof}.  The workload payload reuses
    {!Snapshot.workload} verbatim, so everything {!Snapshot.compare} can
    gate on, {!Trend} can chart over time.

    {b Concurrency.}  Appends serialize on an advisory lock over a
    sibling [<path>.lock] file (created atomically, removed on release)
    and issue the line as a single [write] to an [O_APPEND] descriptor,
    so parallel workers (and separate processes) can share a ledger
    without interleaving partial lines.  A lock orphaned by a holder that
    died without releasing it (SIGKILL mid-append) does not block the
    ledger forever: contenders break locks older than a staleness
    threshold — 10 s by default, [SMT_LOCK_STALE_MS] to override — with a
    logged warning.  Keep the threshold far above the longest plausible
    append (sub-millisecond) to make false breaks implausible.

    {b Robustness.}  [read] skips lines that do not parse — typically the
    truncated tail of a run that died mid-append — and reports how many
    it skipped; [gc] rewrites the file without them.

    {b Determinism.}  The caller injects the clock ([make ~time]); with a
    fixed time the id (a digest of the canonical payload) and the whole
    line are byte-reproducible, which is what the tests and the CI
    byte-compares rely on.  The CLI reads [SMT_CLOCK] (unix seconds) for
    the same purpose, via {!clock}. *)

val schema_version : int

type workload = {
  lw_workload : Snapshot.workload;
  lw_prof : (string * Prof.stats) list;
      (** stage name -> GC attribution; empty when profiling was off *)
}

type record = {
  r_version : int;
  r_id : string;  (** 12-hex digest of the canonical payload (sans id) *)
  r_time : float;  (** unix seconds, injected *)
  r_tool : string;  (** e.g. ["smt_flow 1.0.0"] *)
  r_kind : string;  (** ["run"] | ["bench"] | ["lint"] | ["campaign"] *)
  r_tag : string;  (** snapshot tag, or [""] *)
  r_circuit : string;  (** single-run circuit, or ["-"] for sweeps *)
  r_technique : string;
  r_guard : string;
  r_jobs : int;
  r_args_hash : string;  (** 12-hex digest of the invocation's argv *)
  r_workloads : workload list;
}

val default_path : unit -> string option
(** The [SMT_LEDGER] environment variable, if set. *)

val clock : unit -> float
(** [SMT_CLOCK] (unix seconds, for deterministic tests and CI) if set and
    parseable, else [Unix.gettimeofday ()]. *)

val make :
  ?time:float ->
  ?tool:string ->
  ?tag:string ->
  ?circuit:string ->
  ?technique:string ->
  ?guard:string ->
  ?jobs:int ->
  ?args:string list ->
  kind:string ->
  workload list ->
  record
(** Assemble a record; [time] defaults to {!clock}[ ()], the id and
    args-hash are computed here. *)

val to_json : record -> string
(** One canonical JSON line (no trailing newline). *)

val of_json : Obs_json.t -> (record, string) result
val of_line : string -> (record, string) result

val append : string -> record -> unit
(** Lock-guarded single-write append of [to_json r ^ "\n"]. *)

type read_result = {
  records : record list;  (** file order *)
  skipped : int;  (** malformed / truncated lines tolerated *)
}

val read : string -> (read_result, string) result
val find : string -> string -> (record, string) result
(** [find path id] — the first record whose [r_id] matches. *)

type gc_result = { kept : int; dropped_malformed : int; dropped_old : int }

val gc : ?keep:int -> string -> (gc_result, string) result
(** Rewrite the ledger in place (under the append lock): malformed lines
    are dropped; with [keep], only the newest [keep] records (by file
    order) survive.  The rewrite is atomic and fsynced. *)
