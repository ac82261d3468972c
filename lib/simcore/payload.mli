(** Synthetic data payloads.

    All data moving through the simulated storage stack is a [Payload.t].
    Small functional tests use [Bytes] payloads and verify contents
    byte-for-byte; large benchmark runs use [Pattern] payloads (a seed plus
    an offset into a deterministic infinite stream) so that hundreds of
    gigabytes of simulated traffic fit in memory while exercising exactly
    the same chunking / copy-on-write / metadata code paths.

    A payload is an immutable byte sequence of a known length. *)

type t

val length : t -> int
(** Byte length; O(1). *)

val zero : int -> t
(** [zero len] is [len] zero bytes. *)

val pattern : seed:int64 -> int -> t
(** [pattern ~seed len] is the first [len] bytes of the infinite
    deterministic stream identified by [seed], a pure function of
    [(seed, position)] that represents large random buffers without
    materializing them. The stream is made of 64-bit words: word [w] is
    the SplitMix64 finalizer applied to [seed + w], and its bytes, lowest
    first, are positions [8w] to [8w+7], so one mix yields 8 bytes. *)

val of_bytes : bytes -> t
(** Takes ownership of the buffer; do not mutate it afterwards. *)

val of_string : string -> t
(** Copy of the string's bytes as a payload. *)

val byte_at : t -> int -> char
(** [byte_at p i] is the [i]-th byte. Requires [0 <= i < length p].
    Test-only: an observer. *)

val sub : t -> pos:int -> len:int -> t
(** [sub p ~pos ~len] is the slice [\[pos, pos+len)]. O(parts) and shares
    underlying data. *)

val concat : t list -> t
(** Concatenation; flattens nested concatenations. When exactly one
    non-empty payload is given, it is returned unchanged, so its memoized
    digest survives reassembly. *)

val splice : t -> pos:int -> t -> t
(** [splice base ~pos patch] is [base] with [patch] written over its bytes
    from [pos]: the payload [concat [sub base ~pos:0 ~len:pos; patch;
    suffix]], with the same segments and the same degenerate cases ([base]
    or [patch] itself when nothing else remains), built in one pass.
    Requires [pos + length patch <= length base]. When [patch]'s segments
    are exactly [base]'s over that range, found without allocating, the
    result is a fresh value sharing [base]'s segments and owing [base]'s
    digest: see {!digest}. *)

val equal : t -> t -> bool
(** Structural fast path (identical descriptors), falling back to
    byte-by-byte comparison. Test-only: a comparison for test assertions. *)

val to_string : t -> string
(** Materializes the payload. Raises [Invalid_argument] above 64 MiB as a
    guard against accidentally materializing benchmark-scale payloads. *)

val digest : t -> int64
(** Content digest: equal payloads have equal digests (collisions aside —
    the digest is a 64-bit rolling hash, h <- h * b + (byte + 1) mod 2^64
    with b the 64-bit FNV prime). [Zero] runs digest in O(log n). [Pattern]
    and [Bytes] segments are hashed a 64-bit word at a time without
    allocating, at about 1.2 GiB/s (pattern) and 1.3 GiB/s (bytes) of
    host time on one core. A segment of at least 64 KiB folds as two
    halves, h(a ++ b) = h(a) * b^|b| + h(b): the caller folds the first
    while a helper domain folds the second, or takes it back and folds it
    itself when the helper has not started it. The helper is spawned on
    the first long fold that finds none alive and exits after a fixed
    count of spins without a job (about 2 ms); none is spawned when
    [Domain.recommended_domain_count () = 1]. It only reads the segment,
    and every counter below stays on the caller's domain, so digests and
    counts are those of a sequential fold. Call [digest] from one domain
    only. Once a helper has been spawned, [Unix.fork] raises in the
    process (OCaml 5.1 forbids it after any domain was created). A
    [Pattern] segment's digest is also kept in a process-wide
    cache keyed by (seed, offset, length), so another payload slicing the
    same stretch of the same stream reuses it; the cache holds two
    generations of at most 150 000 segments each and keeps admitting
    after it fills. The whole payload's digest is additionally memoized
    per value, so repeated digests of the same payload (verified reads,
    commit-path dedup lookups) are O(1) after the first.

    A value that {!splice} built by sharing its base's segments carries
    the base's digest, memoized or not, as owed: its first [digest]
    returns it without folding but counts in {!hashed_bytes} exactly what
    the fold would have; later calls are free. *)

val hashed_bytes : unit -> int
(** Monotonic count of bytes a real implementation would have fed through
    the hash since process start. Per-payload memo hits cost nothing (a
    value carrying its digest models reuse an implementation can actually
    perform); internal cross-payload segment caches are simulator
    shortcuts and still count; [Zero] runs (O(log n) math) stay free. An
    owed digest (see {!splice}) counts on its first use as the fold would:
    the length of every [Pattern] and [Bytes] segment. The delta across an
    operation measures real digest work regardless of payload
    representation. *)

(** Cumulative counters of the cross-payload [Pattern] segment digest
    cache described under {!digest}. *)
type cache_stats = {
  hits : int;  (** lookups answered by the segment cache *)
  misses : int;  (** segments hashed and then admitted *)
  generation : int;  (** entries per generation; at most two are held *)
}

val segment_cache_stats : unit -> cache_stats
(** The segment cache's counters so far. Test-only: an observer. *)

val pp : Format.formatter -> t -> unit
(** Structural summary, e.g. ["pattern(seed=3,len=1024)"].
    Test-only: a printer for test output. *)
