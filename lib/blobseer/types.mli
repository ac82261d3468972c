(** Shared BlobSeer datatypes. *)

type replica = { provider : int; chunk : Storage.Content_store.chunk_id }
(** One stored copy of a chunk: which data provider holds it, under which
    content-store id. *)

type chunk_desc = { serial : int; size : int; digest : int64; replicas : replica list }
(** Descriptor stored in segment-tree leaves: where the chunk for this
    stripe lives, how many bytes of it are meaningful, and the writer-side
    {!Simcore.Payload.digest} of the content — the end-to-end integrity
    reference readers and the scrubber verify replicas against. [serial]
    is a client-minted identity distinguishing descriptors that reference
    the same physical replicas through the dedup index; the refcount audit
    counts distinct serials per digest. *)

(** Tunable service parameters. Costs are in seconds, sizes in bytes. *)
type params = {
  stripe_size : int;  (** chunk granularity; the paper uses 256 KiB *)
  replication : int;  (** copies per chunk, on distinct providers *)
  write_window : int;  (** outstanding chunk writes per client *)
  read_window : int;  (** outstanding chunk reads per client *)
  request_overhead : float;  (** per-chunk service cost at a data provider *)
  publish_cost : float;  (** serialized cost of one version publication *)
  allocate_cost : float;  (** per-chunk cost at the provider manager *)
  dedup : bool;
      (** consult the provider manager's content-addressed index before
          allocating placements: a digest hit reuses the existing replicas
          (zero data movement), a miss writes and registers the chunk *)
  digest_cache : bool;
      (** carry per-chunk content digests across commit epochs (mirror-side
          clean-rewrite skips, descriptor-digest reuse for dirty-set hints);
          off = every commit re-digests every chunk it ships, the pre-PR-9
          behavior, kept as an ablation/bench knob *)
}

val default_params : params
(** 256 KiB stripes, replication 1, window 8, dedup on — overridden per
    experiment by the calibration layer. *)

val desc_content_digest : chunk_desc -> int64
(** Merkle leaf input of a descriptor: a hash of its logical content
    (digest, size) only — serial and replica placement excluded, so
    descriptors minted independently for identical content (dedup
    references, scrub repairs, geo-replicated copies) agree. The one leaf
    function every descriptor-tree Merkle user must share (see
    {!Segment_tree.merkle_digest}'s one-function-per-tree-family
    contract). *)

exception Provider_down of string
(** Raised when an operation needs a data provider whose machine failed and
    no live replica remains. *)

exception Service_crashed of string
(** Raised when a metadata-plane service (version manager, metadata
    provider) crashed mid-operation; the caller must run journal recovery
    ([restart]) before retrying. *)
