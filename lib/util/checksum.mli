(** 64-bit FNV-1a checksum, used to validate write-ahead-log records and
    checkpoint images after a crash. *)

val fnv64 : string -> int64
val fnv64_sub : string -> pos:int -> len:int -> int64

val fnv64_bytes : Bytes.t -> pos:int -> len:int -> int64
(** Same hash over a byte range of a mutable buffer. *)
