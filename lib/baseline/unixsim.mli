(** Monolithic Unix-like comparison kernels (§7's Linux and OpenBSD
    columns), simulated over the *same* disk and virtual clock as
    HiStar so the benchmark comparisons measure structure, not
    substrate.

    Two flavors:
    - [Linux]: an ext3-ordered-mode-style file system — asynchronous
      writes are cached; [fsync] writes the file's data blocks to their
      home location, then commits a journal record (two barriers);
      synchronous unlink journals only the directory entry.
    - [Openbsd]: an mfs-style in-memory file system — sync operations
      do not touch the disk at all (the paper could not run its
      synchronous benchmarks on OpenBSD either).

    A simple time model covers what the paper's microbenchmarks
    exercise: per-syscall cost, context-switch cost for pipe IPC, and
    a fixed fork/exec cost (9 syscalls on this interface). Discretionary
    access control (uid/mode bits) is implemented so the §1 attack
    suite can demonstrate that every leak vector *succeeds* here. *)

type flavor = Linux | Openbsd

type t

val create :
  flavor ->
  ?disk:Histar_disk.Disk.t ->
  clock:Histar_util.Sim_clock.t ->
  unit ->
  t

val syscall_count : t -> int
val reset_syscall_count : t -> unit

(** {1 File system} *)

val creat : t -> uid:int -> mode:int -> string -> unit
val write : t -> uid:int -> string -> string -> unit
val read : t -> uid:int -> string -> string
(** Raises [Failure] on missing file or permission denial (mode 0o600
    and a different uid). *)

val unlink : t -> uid:int -> string -> unit
val fsync : t -> string -> unit
val fsync_dir : t -> string -> unit
val exists : t -> string -> bool
val sync_all : t -> unit
val drop_caches : t -> unit
(** Evict the buffer cache so subsequent reads hit the disk. *)

val sync_write_pages : t -> string -> pages:int -> unit
(** One synchronous random write: flush [pages] 4KB pages in place plus
    a barrier (the §7.1 random-write phase). *)

(** {1 Processes and IPC} *)

val fork_exec_true : t -> unit
(** fork + execve /bin/true + exit + wait: 9 syscalls, one fork/exec
    latency charge. *)

val pipe_rtt : t -> unit
(** One 8-byte message round trip between two processes over a pair of
    pipes: 4 syscalls and 2 context switches. *)

(** {1 The §1 attack surface} *)

type leak = { channel : string; succeeded : bool }

val attack_surface : t -> secret:string -> leak list
(** A compromised scanner running as the user's uid attempts the same
    §1 leak vectors the HiStar test suite runs. On this kernel they
    succeed. *)

val network_sink : t -> string
(** Everything "transmitted" to the attacker's host so far. *)
