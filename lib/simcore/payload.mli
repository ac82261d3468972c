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
    byte-by-byte comparison up to 4 MiB and to {!digest} above it.
    Test-only: a comparison for test assertions. *)

val to_string : t -> string
(** Materializes the payload. Raises [Invalid_argument] above 64 MiB as a
    guard against accidentally materializing benchmark-scale payloads. *)

val digest : t -> int64
(** Content digest: payloads with equal bytes have equal digests
    (collisions aside) as long as neither holds, in a [Bytes] segment,
    bytes that the other holds as [Pattern] bytes: [Pattern] content is
    digested by its identity, not by its bytes. Each maximal run of
    [Pattern] bytes, taken in canonical coordinates ([pattern ~seed] at
    [off] is the stream of [seed + off/8] at [off mod 8], since word [w]
    of stream [seed] is the mix of [seed + w]), contributes a mixed hash
    of its (canonical seed, offset, length) in O(1). [Zero] and [Bytes]
    stretches are folded by content with a 64-bit rolling hash,
    h <- h * b + (byte + 1) mod 2^64 with b the 64-bit FNV prime: [Zero]
    runs in O(log n), [Bytes] a 64-bit word at a time without allocating,
    at about 1.3 GiB/s of host time on one core. Stretches combine as
    h(a ++ c) = h(a) * b^|c| + h(c). So a digest costs O(segments) plus
    the [Bytes] bytes, and [Bytes]-against-[Bytes] and [Zero] equalities
    are exact. The whole payload's digest is memoized per value, so
    repeated digests of the same payload (verified reads, commit-path
    dedup lookups) are O(1) after the first.

    A value that {!splice} built by sharing its base's segments carries
    the base's digest, memoized or not, as owed: its first [digest]
    returns it without folding but counts in {!hashed_bytes} exactly what
    the fold would have; later calls are free. *)

val hashed_bytes : unit -> int
(** Monotonic count of bytes a real implementation would have fed through
    the hash since process start: the length of every [Pattern] and
    [Bytes] segment of each payload whose digest is not yet memoized on
    the value, whether owed (see {!splice}) or computed. Per-payload memo
    hits cost nothing (a value carrying its digest models reuse an
    implementation can actually perform); [Pattern] runs digested by
    identity still count their length; [Zero] runs (O(log n) math) stay
    free. The delta across an operation measures real digest work
    regardless of payload representation. *)

val pp : Format.formatter -> t -> unit
(** Structural summary, e.g. ["pattern(seed=3,len=1024)"].
    Test-only: a printer for test output. *)
