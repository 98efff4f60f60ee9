(** The HiStar file system (§5.1): files are segments, directories are
    containers with a {!Dirseg}, permissions are labels enforced by the
    kernel (never by this untrusted library code).

    Quotas are managed automatically as §3.3 suggests: growing a file
    walks the directory chain from the root and moves quota downwards
    as needed, so users never touch quotas except at the top.

    Paths are Unix-like ("/a/b/c"); a mount table maps absolute path
    prefixes onto other containers (per-process, copied across spawn,
    like Plan 9). *)

type t

val make : root:Histar_core.Types.oid -> t
(** Wrap an existing container as the file-system root. The root
    directory gets a directory segment on first use. *)

val format_root :
  container:Histar_core.Types.oid -> label:Histar_label.Label.t -> t
(** Create a fresh "/" directory container inside [container]. *)

val root : t -> Histar_core.Types.oid
val copy : t -> t
(** Independent mount table over the same tree (for spawn). *)

(** {1 Mounts} *)

val mount : t -> path:string -> Histar_core.Types.oid -> unit
val unmount : t -> path:string -> unit

(** {1 Lookup} *)

type node = {
  parent : Histar_core.Types.oid;  (** enclosing directory container *)
  oid : Histar_core.Types.oid;
  is_dir : bool;
}

val lookup : t -> string -> node option
val entry : node -> Histar_core.Types.centry
val exists : t -> string -> bool
val is_dir : t -> string -> bool

(** {1 Directories} *)

val mkdir :
  t -> ?label:Histar_label.Label.t -> ?quota:int64 -> string -> Histar_core.Types.oid

val readdir : t -> string -> Dirseg.entry list

(** {1 Files} *)

val create :
  t -> ?label:Histar_label.Label.t -> ?quota:int64 -> string -> Histar_core.Types.centry
(** Create an empty file; fails if it exists. *)

val write_file : t -> string -> string -> unit
(** Create-or-truncate then write, growing quotas as needed. *)

val append_file : t -> string -> string -> unit
val read_file : t -> string -> string
val file_size : t -> string -> int
val unlink : t -> string -> unit
(** Removes a file or an (empty or not) directory subtree. *)

val rename : t -> src:string -> dst:string -> unit
(** Atomic within one directory; remove+add across directories. *)

val link : t -> src:string -> dst:string -> unit
(** Hard link (fixes the file's quota, as the kernel requires). *)

val fsync : t -> string -> unit
(** Force the file and its directory metadata with a single log
    commit (one barrier). *)

val fsync_range : t -> string -> off:int -> len:int -> unit
(** In-place flush of a byte range (the §7.1 random-write fast path). *)

val fsync_dir : t -> string -> unit
(** fsync of a directory: checkpoints the entire system state (§7.1) —
    the expensive path behind the paper's synchronous-unlink numbers. *)

val relabel :
  t -> string -> label:Histar_label.Label.t -> Histar_core.Types.centry
(** The §9 chmod/chown semantics: copy the file segment with the new
    label, swap the directory entry, and unreference the old object
    (revoking existing descriptors). Returns the new entry. *)

val mtime : t -> string -> int64 option
(** Modification time (virtual nanoseconds), from the object metadata.
    [None] if the file was never written through this library. *)

val reserve : t -> string -> int -> unit
(** Ensure the named file can grow to [n] bytes, moving quota down the
    directory chain from the root. *)

val split_path : string -> string list
(** Exposed for tests. *)
