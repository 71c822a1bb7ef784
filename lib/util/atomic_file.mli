(** Crash-safe whole-file replacement.

    The contents go to a temp file named after the target plus the
    writer's pid, then the temp file is renamed over the target.  A reader
    therefore sees either the previous file or the complete new one, never
    a prefix, and two processes writing the same target cannot corrupt
    each other's staging file. *)

val write : fsync:bool -> string -> string -> unit
(** [write ~fsync path contents] replaces [path] with [contents].  With
    [~fsync:true] the data reaches the disk before the rename, so the new
    file also survives a machine crash.  Raises [Failure] on a short write
    and [Unix.Unix_error] or [Sys_error] when the file cannot be written. *)
