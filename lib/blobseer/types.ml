(** Shared BlobSeer datatypes. *)

(** One stored copy of a chunk: which data provider holds it, under which
    content-store id. *)
type replica = { provider : int; chunk : Storage.Content_store.chunk_id }

(** Descriptor stored in segment-tree leaves: where the chunk for this
    stripe lives, how many bytes of it are meaningful, and the content
    digest computed by the writer — the end-to-end integrity reference
    every reader and the scrubber verify replicas against. [serial] is a
    client-minted identity distinguishing descriptors that reference the
    same physical replicas through the dedup index; the refcount audit
    counts distinct serials per digest. *)
type chunk_desc = { serial : int; size : int; digest : int64; replicas : replica list }

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

let default_params =
  {
    stripe_size = 256 * Simcore.Size.kib;
    replication = 1;
    write_window = 8;
    read_window = 8;
    request_overhead = 3e-4;
    publish_cost = 1e-3;
    allocate_cost = 2e-5;
    dedup = true;
    digest_cache = true;
  }

(* Merkle leaf input of a descriptor: the logical content (digest, size)
   only. Serial and replica placement are deliberately excluded so that
   descriptors minted independently for identical content — dedup
   references, scrub-repaired replicas, geo-replicated copies on another
   site's providers — agree, making Merkle roots compare logical content
   across versions, sites and repairs. *)
let desc_content_digest d = Int64.add (Int64.mul d.digest 0x100000001B3L) (Int64.of_int d.size)

exception Provider_down of string
(** Raised when an operation needs a data provider whose machine failed and
    no live replica remains. *)

exception Service_crashed of string
(** Raised when a metadata-plane service (version manager, metadata
    provider) crashed mid-operation; the caller must run journal recovery
    ([restart]) before retrying. *)
