(** Byte-size constants and formatting helpers.

    All data quantities in the simulator are expressed in bytes as plain
    [int] values (63-bit on every supported platform, so sizes up to
    exabytes are representable). *)

val kib : int
(** 1 KiB = 1024 bytes. *)

val mib : int
(** 1 MiB = 1024 KiB. *)

val gib : int
(** 1 GiB = 1024 MiB. *)

val mib_n : int -> int
(** [mib_n n] is [n] MiB. *)

val gib_n : int -> int
(** [gib_n n] is [n] GiB. *)

val pp : Format.formatter -> int -> unit
(** Human-readable size, e.g. ["52.0 MB"]. *)

val to_string : int -> string
(** [to_string bytes] is [Fmt.str "%a" pp bytes]. *)

val div_ceil : int -> int -> int
(** [div_ceil a b] is [a / b] rounded towards positive infinity.
    Requires [b > 0] and [a >= 0]. *)

val round_up : int -> int -> int
(** [round_up a b] is the smallest multiple of [b] that is [>= a]. *)
