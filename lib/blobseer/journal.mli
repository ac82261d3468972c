(** Write-ahead intent journal for crash-consistent service mutations.

    A service appends an {e intent} record describing a mutation before
    touching its state, applies the mutation, then marks the record
    committed. The journal models a durable log on the service host's local
    disk: it survives a crash of the service process, so a restart can
    enumerate {!pending} intents — mutations that may have been applied
    partially or not at all — and roll each back (or forward) before
    serving again. Entries are in-memory and cost-free; durability is part
    of the simulation's failure model, not an I/O cost. *)

type 'a t

val create : name:string -> unit -> 'a t
(** An empty journal; [name] labels traces and audit reports. *)

val append : 'a t -> 'a -> int
(** Log an intent; returns its journal id. *)

val commit : 'a t -> int -> unit
(** Mark an intent fully applied. Raises [Invalid_argument] if the entry is
    unknown or already resolved. *)

val abort : 'a t -> int -> unit
(** Mark an intent rolled back (recovery resolution). Raises like
    {!commit}. *)

val pending : 'a t -> (int * 'a) list
(** Intents neither committed nor aborted, in append order — what a
    restart must reconcile. *)

val pending_count : 'a t -> int
(** [List.length (pending t)]; the journal-quiescence audit asserts this
    is 0 at teardown. *)
