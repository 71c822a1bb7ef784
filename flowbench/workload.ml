(* The benchmark's workloads: which flows one iteration runs, how their
   inputs follow from the seed, and the QoR each flow must reproduce. *)

module Flow = Smt_core.Flow
module Qor = Smt_core.Qor
module Library = Smt_cell.Library
module Netlist = Smt_netlist.Netlist
module Compose = Smt_netlist.Compose
module Generators = Smt_circuits.Generators
module Suite = Smt_circuits.Suite

(* The seed every pinned value was recorded at: [Flow.default_options]'s. *)
let default_seed = Flow.default_options.Flow.seed

type qor = {
  area : float;
  standby : float;
  wns : float;
  mt_cells : int;
  switches : int;
  clusters : int;
  holders : int;
}

let qor_of_report (r : Flow.report) =
  {
    area = r.Flow.area;
    standby = r.Flow.standby_nw;
    wns = r.Flow.wns;
    mt_cells = r.Flow.n_mt_cells;
    switches = r.Flow.n_switches;
    clusters = r.Flow.n_clusters;
    holders = r.Flow.n_holders;
  }

(* Bit-for-bit: a QoR that moved in the last ulp is a changed result. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qor_equal a b =
  same_float a.area b.area && same_float a.standby b.standby && same_float a.wns b.wns
  && a.mt_cells = b.mt_cells && a.switches = b.switches && a.clusters = b.clusters
  && a.holders = b.holders

let qor_to_string q =
  Printf.sprintf
    "{ area = %h; standby = %h; wns = %h; mt_cells = %d; switches = %d; clusters = %d; \
     holders = %d }"
    q.area q.standby q.wns q.mt_cells q.switches q.clusters q.holders

(* One flow of an iteration: a named design generator and the technique
   to run on it. *)
type design = {
  d_name : string;
  d_technique : Flow.technique;
  d_gen : Library.t -> Netlist.t;
}

type t = {
  name : string;
  guard : Flow.guard;
  jobs : int;  (** flows of one iteration run through [Par.map ~jobs] *)
  designs : seed:int -> design list;
  pins : (string * qor) list;  (** per design, valid at [default_seed] only *)
  table1_shape : bool;  (** improved beats conventional in area and standby *)
}

let nproc = Domain.recommended_domain_count ()

(* Seed [s] shifts each generator's seed by [s - default_seed], so the
   default seed builds exactly the generators' own default circuits. *)
let gen_seed ~seed base = base + seed - default_seed

let soc ~seed lib =
  let s = gen_seed ~seed in
  Compose.merge ~name:"soc25k"
    [
      (* control: wide, mostly shallow random logic (min_depth << depth)
         whose slack feeds many high-Vth swaps and small clusters *)
      ( "ctl",
        Generators.layered ~seed:(s 11) ~min_depth:2 ~name:"ctl" ~inputs:384 ~outputs:384
          ~width:768 ~depth:28 lib );
      ( "pipe",
        Generators.pipeline ~seed:(s 17) ~name:"pipe" ~stages:6 ~width:128 ~stage_depth:6 lib
      );
      ("alu", Generators.alu ~seed:(s 5) ~name:"alu" ~bits:32 lib);
      ( "crc",
        Generators.crc ~name:"crc" ~bits:32 ~taps:[ 1; 2; 4; 5; 7; 8; 10; 11; 12; 16; 22; 23; 26 ]
          lib );
      ("mul", Generators.multiplier ~name:"mul" ~bits:32 lib);
    ]

let improved name gen = { d_name = name; d_technique = Flow.Improved_smt; d_gen = gen }

let table1_designs ~seed:_ =
  List.map
    (fun (name, gen, technique) -> { d_name = name; d_technique = technique; d_gen = gen })
    Qor.default_workloads

(* BENCH_baseline.json's [qor] of the six Table-1 workloads (seed 1). *)
let table1_pins =
  let q area standby wns mt_cells switches clusters holders =
    { area; standby; wns; mt_cells; switches; clusters; holders }
  in
  [
    ("circuit_a/dual", q 9579.200000000004 15189.900000000382 654.1916245810817 0 0 0 0);
    ( "circuit_a/conventional",
      q 14724.455999999947 2357.1400000001217 322.45185042483126 526 0 0 0 );
    ("circuit_a/improved", q 10712.106000000033 1367.84499999999 247.8584358764042 526 26 26 64);
    ("circuit_b/dual", q 6489.399999999994 4950.47999999992 317.15192350473785 0 0 0 0);
    ( "circuit_b/conventional",
      q 7969.915999999982 1214.4999999999793 201.78608539278025 151 0 0 0 );
    ("circuit_b/improved", q 6887.182000000017 936.3849999999862 149.3503869892079 151 8 8 63);
  ]

let full =
  [
    {
      name = "datapath-mult64";
      guard = Flow.Guard_off;
      jobs = 1;
      designs =
        (fun ~seed:_ ->
          [ improved "mult64" (fun lib -> Generators.multiplier ~name:"mult64" ~bits:64 lib) ]);
      pins =
        [
          ( "mult64",
            {
              area = 0x1.667a2624dd14cp+17;
              standby = 0x1.0353570a3d669p+14;
              wns = 0x1.456919ee41p+8;
              mt_cells = 17071;
              switches = 730;
              clusters = 730;
              holders = 399;
            } );
        ];
      table1_shape = false;
    };
    {
      name = "soc-guarded";
      guard = Flow.Guard_strict;
      jobs = 1;
      designs = (fun ~seed -> [ improved "soc25k" (soc ~seed) ]);
      pins =
        [
          ( "soc25k",
            {
              area = 0x1.900539999944fp+17;
              standby = 0x1.85394ccccc5dap+14;
              wns = 0x1.1aa1b5aafb7p+8;
              mt_cells = 5907;
              switches = 463;
              clusters = 463;
              holders = 146;
            } );
        ];
      table1_shape = false;
    };
    {
      name = "table1-sweep";
      guard = Flow.Guard_off;
      jobs = nproc;
      designs = table1_designs;
      pins = table1_pins;
      table1_shape = true;
    };
  ]

(* The same three workloads shrunk to seconds, for the benchmark's own
   test: same layers, same oracle, small inputs. *)
let smoke =
  List.map
    (fun w ->
      match w.name with
      | "datapath-mult64" ->
        {
          w with
          designs =
            (fun ~seed:_ ->
              [ improved "mult8" (fun lib -> Generators.multiplier ~name:"mult8" ~bits:8 lib) ]);
          pins = [];
        }
      | "soc-guarded" ->
        {
          w with
          designs = (fun ~seed:_ -> [ improved "soc" (List.assoc "soc" Suite.all) ]);
          pins = [];
        }
      | _ -> w)
    full

let find ~smoke:sm name = List.find_opt (fun w -> w.name = name) (if sm then smoke else full)

let options w ~seed = { Flow.default_options with Flow.seed; guard = w.guard }
