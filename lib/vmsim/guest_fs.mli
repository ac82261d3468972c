(** Guest file system.

    A simple extent-based file system living on a {!Vdisk.Block_dev.t} —
    the guest-visible persistence layer that the paper's checkpoint
    protocols dump process state into. Two properties matter for BlobCR:

    - writes are buffered in the page cache and only reach the virtual disk
      on {!sync} (the paper inserts an explicit [sync] before requesting a
      disk snapshot to avoid corruption);
    - all metadata is serialized onto the device, so a file system written
      by one VM can be {!mount}ed by a replacement VM booted from a disk
      snapshot — which is how restart recovers checkpoint files, and how
      rolled-back file modifications vanish. *)

open Simcore
open Vdisk

type t

exception Fs_full

val format : Block_dev.t -> t
(** Create an empty file system with 4 KiB blocks and a 4 MiB metadata
    region; raises [Invalid_argument] on a device no larger than that.
    Writes the initial superblock (buffered until
    {!sync}). *)

val mount : Block_dev.t -> t
(** Read the superblock and file table back from the device (charging the
    device reads). Raises [Failure] if the device holds no valid file
    system. *)

val write_file : t -> path:string -> Payload.t -> unit
(** Create or replace a file (page cache only until {!sync}). *)

val append_file : t -> path:string -> Payload.t -> unit
(** Extend a file (creating it if missing); page cache only until
    {!sync}. A file not yet in the page cache is loaded from the device
    first. Appends are buffered and fold into the file's contents with one
    {!Payload.concat} on the next {!read_file} or {!sync}, so a file
    appended to [k] times between syncs costs O(k + segments) rather than
    [k] copies of its segment array; the folded payload has exactly the
    segments one [concat] per append would have built. {!write_file}
    discards pending appends. *)

val read_file : t -> path:string -> Payload.t
(** From the page cache, or loaded from the device on first access.
    Raises [Not_found]. *)

val file_size : t -> path:string -> int
(** Logical size in bytes. Raises [Not_found]. *)

val exists : t -> path:string -> bool
(** Whether a file exists at [path]. *)

val list_files : t -> string list
(** Sorted. *)

val delete_file : t -> path:string -> unit
(** Frees the file's extents for reuse. *)

val sync : t -> unit
(** Flush dirty file contents and metadata to the device, then flush the
    device itself. After [sync], a disk snapshot captures a consistent
    image. *)

val dirty_bytes : t -> int
(** Bytes the next {!sync} will write (data only). Test-only: an observer. *)

val used_bytes : t -> int
(** Device bytes allocated to files (block-granular). Test-only: an observer. *)
