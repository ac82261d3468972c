(** Ablation studies of BlobCR's design choices.

    The paper motivates several mechanisms qualitatively; these experiments
    isolate each one by toggling a single knob at a fixed workload:

    - {!prefetch}: restart time with and without adaptive prefetching /
      fetch coalescing (design principle 3.1.4);
    - {!stripe_size}: the access-contention vs fragmentation trade-off the
      paper resolved at 256 KiB (Section 4.2.1);
    - {!replication}: checkpoint cost of surviving data-provider failures
      (replicated chunks, design principle 3.1.1);
    - {!incremental}: incremental COMMIT vs re-uploading the full dirty
      image every checkpoint (what qcow2-disk effectively does), isolating
      the value of shadowing. *)

open Simcore

val prefetch : Scale.t -> progress:(string -> unit) -> Stats.table
(** Restart completion time vs instance count, prefetcher enabled/disabled,
    BlobCR-app. *)

val stripe_size : Scale.t -> progress:(string -> unit) -> Stats.table
(** Checkpoint and restart time at a fixed instance count across stripe
    sizes (64 KiB … 1 MiB). *)

val replication : Scale.t -> progress:(string -> unit) -> Stats.table
(** Checkpoint time and storage at replication factor 1–3. *)

val incremental : Scale.t -> progress:(string -> unit) -> Stats.table
(** Successive-checkpoint times with incremental commits vs whole-image
    re-commit. *)
