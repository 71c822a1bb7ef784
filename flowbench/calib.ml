(* Machine-speed calibration.

   Shared hosts drift: on a shared 2-vCPU Xeon host (2.1 GHz) the same
   flow on the same seed took anywhere from 2.6 s to 7.0 s within
   minutes, and set-up time moved by the same factor.  So the benchmark
   also times a fixed kernel, written against the standard library only
   so that no change to the flow can move it, and scales every time it
   reports by [reference_s / median kernel time]: the time in seconds of
   that host at the speed it had when this was written.

   The kernel mixes three kinds of work, because a slow host slows
   memory-bound work more than compute: a longest-path sweep over a
   random DAG of 2^20 nodes (two fanins near the node, one anywhere
   before it: what STA does), independent random reads and a sequential
   pass over a 64 MB table.  On that host, slowed down, a DAG sweep alone
   took 2.2x its usual time while the flow took 2.6x, and within one slow
   spell random reads over a large table swung with the flow more fully
   than the sweep did.  The data lives in bigarrays built once, outside
   the OCaml heap, and a sample allocates nothing: it neither pays the
   flows' GC debt nor adds to the heap the benchmark measures, so it can
   also be sampled in the middle of a flow. *)

module A1 = Bigarray.Array1

let now = Unix.gettimeofday

type data = {
  fanin : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;  (** 3 per node, -1 = none *)
  delay : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  arrival : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  table : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;  (** 2^23 words *)
}

let nodes = 1 lsl 20
let words = 1 lsl 23

let data =
  lazy
    (let st = Random.State.make [| 7 |] in
     let fanin = A1.create Bigarray.int32 Bigarray.c_layout (3 * nodes)
     and delay = A1.create Bigarray.float64 Bigarray.c_layout nodes
     and arrival = A1.create Bigarray.float64 Bigarray.c_layout nodes
     and table = A1.create Bigarray.int Bigarray.c_layout words in
     for i = 0 to nodes - 1 do
       for k = 0 to 2 do
         let j =
           if i < 64 then -1 else if k < 2 then i - 1 - Random.State.int st 64 else Random.State.int st i
         in
         A1.unsafe_set fanin ((3 * i) + k) (Int32.of_int j)
       done;
       A1.unsafe_set delay i (1.0 +. Random.State.float st 1.0);
       A1.unsafe_set arrival i 0.0
     done;
     for i = 0 to words - 1 do
       A1.unsafe_set table i (Random.State.bits st)
     done;
     { fanin; delay; arrival; table })

let reads = 1_500_000

let kernel () =
  let { fanin; delay; arrival; table } = Lazy.force data in
  for i = 0 to nodes - 1 do
    let m = ref 0.0 in
    for k = 3 * i to (3 * i) + 2 do
      let j = Int32.to_int (A1.unsafe_get fanin k) in
      if j >= 0 then begin
        let a = A1.unsafe_get arrival j in
        if a > !m then m := a
      end
    done;
    A1.unsafe_set arrival i (!m +. A1.unsafe_get delay i)
  done;
  (* random reads: a linear congruential walk over the table *)
  let x = ref 12345 and sum = ref 0 in
  for _ = 1 to reads do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    sum := !sum + A1.unsafe_get table (!x land (words - 1))
  done;
  for i = 0 to words - 1 do
    sum := !sum + A1.unsafe_get table i
  done;
  A1.get arrival (nodes - 1) +. float_of_int (!sum land 0xFF)

(* About the kernel's time on the host above at its usual speed.  Only
   its ratio to the measured kernel time matters, so it must not change
   between runs that are compared. *)
let reference_s = 0.03

type t = { mutable samples : float list; mutable last : float }

let create () =
  ignore (Lazy.force data);
  { samples = []; last = 0.0 }

(* Time [k] runs of the kernel. *)
let sample ?(k = 5) c =
  for _ = 1 to k do
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    c.samples <- (now () -. t0) :: c.samples
  done;
  c.last <- now ()

let start () =
  let c = create () in
  sample c;
  c

(* Between the iterations of a run: at most every [interval_s]. *)
let interval_s = 3.0

let maybe_sample c = if now () -. c.last >= interval_s then sample c
let kernel_s c = Smt_util.Stats.percentile c.samples 50.0

(* Multiply a measured time by this to get reference-host seconds. *)
let scale c = reference_s /. kernel_s c
