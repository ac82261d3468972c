(** PVFS-style parallel file system (the paper's baseline substrate).

    Files are striped round-robin across I/O servers for parallel
    bandwidth; a single metadata server handles every namespace operation
    (create, open, delete, stat), which is the system's serialization point
    under concurrent checkpoint storms. Unlike BlobSeer there is no
    versioning: writes mutate file contents in place, and snapshotting a
    qcow2 image means copying the whole file in as a new object.

    Cost model per stripe operation: network transfer between client and
    the I/O server holding the stripe, a fixed request-service overhead
    (the kernel/VFS + server request path, higher than BlobSeer's
    lightweight chunk service), and disk time at the server. *)

open Simcore
open Netsim
open Storage

type t
type file

type params = {
  stripe_size : int;
  metadata_op_cost : float;  (** serialized cost per namespace operation *)
  request_overhead : float;  (** per-stripe service cost at an I/O server *)
  write_window : int;
  read_window : int;
}

val default_params : params
(** 256 KiB stripes, 5 ms metadata ops, 1 ms per stripe request,
    window 4. *)

val deploy :
  Engine.t ->
  Net.t ->
  params:params ->
  metadata_host:Net.host ->
  io_servers:(Net.host * Disk.t) list ->
  t
(** Stand up a deployment: one metadata server plus an I/O server per
    [(host, disk)] pair. *)

val engine : t -> Engine.t
(** The engine the deployment runs on. *)

val params : t -> params
(** The parameters the deployment was stood up with. *)

val total_bytes : t -> int
(** Physical bytes stored across all I/O servers. *)

val create : t -> from:Net.host -> path:string -> file
(** Namespace operation through the metadata server. Raises
    [Invalid_argument] if the path already exists. *)

val exists : t -> path:string -> bool
(** Cost-free namespace peek (tests and idempotence checks). *)

val delete : t -> from:Net.host -> path:string -> unit
(** Frees the stripes on the I/O servers. *)

val path : file -> string
(** The path the file was created under. *)

val size : file -> int
(** Current logical file size (writes extend it). *)

val write : file -> from:Net.host -> offset:int -> Payload.t -> unit
(** In-place striped write; extends the file if needed. *)

val read : file -> from:Net.host -> offset:int -> len:int -> Payload.t
(** Raises [Invalid_argument] when reading past end of file. Holes left by
    sparse writes read as zeros. *)
