(** Decentralized metadata provider pool.

    BlobSeer distributes segment-tree nodes across many metadata providers
    (the evaluation deploys 20), so metadata traffic scales out instead of
    funnelling through one server. Tree nodes themselves live in process
    memory in this reproduction; the service models the {e cost} of shipping
    and serving node batches, which is what differentiates BlobSeer from a
    centralized-metadata file system under checkpoint storms. *)

open Simcore
open Netsim

type t

val create :
  Engine.t ->
  Net.t ->
  hosts:Net.host list ->
  t
(** One metadata provider per host, each shipping 64-byte tree nodes and
    serving them at 50 µs per node. Requires a non-empty host list. *)

val provider_count : t -> int
(** Size of the metadata provider pool. *)

val fail : t -> int -> unit
(** Fail-stop metadata provider [i]: batches route around it (tree nodes
    are replicated across the pool in the real system).
    {!commit_nodes}/{!fetch_nodes} raise {!Types.Provider_down} once no
    provider is alive. *)

val commit_nodes : t -> from:Net.host -> int -> unit
(** [commit_nodes t ~from n] ships [n] freshly created tree nodes from the
    client at [from], spread evenly over the providers and processed in
    parallel. Blocks until all batches are acknowledged. The commit is
    journaled: an intent is logged before any batch ships and committed
    after the last acknowledgement, so a crash mid-commit is recoverable
    via {!recover_journal}. *)

val arm_crash : t -> unit
(** One-shot: the next {!commit_nodes} crashes with
    {!Types.Service_crashed} after journaling its intent and before
    applying anything. Test-only: a test rig hook. *)

val recover_journal : t -> unit
(** Roll back every pending commit intent (nothing was applied for them).
    Idempotent. *)

val journal_pending : t -> int
(** In-flight commit intents; 0 when quiescent. Test-only: an observer. *)

val audit : t -> Engine.violation list
(** Journal quiescence, part of {!Client}'s deployment audit: pending
    intents while any provider is alive are a half-applied commit nobody
    recovered. Reported under the [blobseer] subject. *)

val recovered_intents : t -> int
(** Total intents rolled back by {!recover_journal}. *)

val fetch_nodes : t -> to_:Net.host -> int -> unit
(** Symmetric read path: retrieve [n] nodes to the client. *)
