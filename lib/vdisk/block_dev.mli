(** Block-device interface a hypervisor exposes to its guest.

    Both the BlobCR mirroring module and qcow2 images implement this
    interface, so the VM, guest file system and checkpoint protocols are
    agnostic of the image format underneath — exactly the compatibility
    property the paper's FUSE-based mirroring module provides by exposing a
    raw POSIX file. *)

type t = {
  capacity : int;
  read : offset:int -> len:int -> Simcore.Payload.t;
  write : offset:int -> Simcore.Payload.t -> unit;
  flush : unit -> unit;  (** barrier: all acknowledged writes are durable *)
}

val read : t -> offset:int -> len:int -> Simcore.Payload.t
(** Bounds-checked wrapper. *)

val write : t -> offset:int -> Simcore.Payload.t -> unit
(** Bounds-checked wrapper. *)

val flush : t -> unit
(** Durability barrier (delegates to the implementation). *)

val in_memory : capacity:int -> t
(** Cost-free in-memory device for tests. Test-only: a test rig hook. *)
