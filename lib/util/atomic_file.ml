let write ~fsync path contents =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = Unix.write_substring fd contents 0 (String.length contents) in
      if n <> String.length contents then
        failwith (Printf.sprintf "Atomic_file.write %s: short write" path);
      if fsync then Unix.fsync fd);
  Sys.rename tmp path
