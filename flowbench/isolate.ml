(* Run one benchmark iteration in a child process.

   A long-lived OCaml 5.1 process keeps the major heap its earlier work
   grew ([Gc.compact] releases nothing there), so in one process the heap
   a flow sees, and the peak it reaches, grew with the number of
   iterations a run happened to fit: 41 MB after 15 s of Table-1 sweeps,
   57 MB after 40 s.  A forked child starts every iteration from the
   parent's small heap, as a fresh CLI call would.

   The child marshals [f ()]'s value (which must hold no closures) back
   through a pipe; the parent waits for the child whatever happens. *)

let run (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let v : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let code = try Marshal.to_channel oc v []; close_out oc; 0 with _ -> 1 in
    (* no at_exit: the parent's buffers are the parent's to flush *)
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v : ('a, string) result =
      try Marshal.from_channel ic
      with End_of_file | Failure _ -> Error "iteration process ended without a result"
    in
    close_in ic;
    let rec wait () =
      try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    (match wait () with
    | Unix.WEXITED 0 -> v
    | Unix.WEXITED c -> Error (Printf.sprintf "iteration process exited with %d" c)
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "iteration process killed by signal %d" s))
