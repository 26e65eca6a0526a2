#pragma once

#include "compress/codec.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace mmlib {

/// Chunked compression container for large payloads (parameter snapshots in
/// the save pipeline). The payload is cut at fixed `chunk_size` boundaries
/// and each chunk is compressed independently, so chunks can be encoded and
/// decoded in parallel on a thread pool.
///
/// Determinism: chunk boundaries are a pure function of (payload size,
/// chunk_size) — never of the pool size — and chunks are concatenated in
/// fixed index order, so the encoded bytes are identical for every thread
/// count. Each chunk carries a CRC-32 of its original bytes, preserving the
/// tamper detection of the flat Codec::Frame container.
///
/// Layout (all integers little-endian, via BytesWriter):
///   u32  magic "MMLC"
///   u8   codec kind
///   u64  original payload size
///   u64  chunk size
///   u64  chunk count
///   per chunk: u32 CRC-32 of the original chunk, u64-length-prefixed
///              compressed bytes

/// Default chunk size: large enough that per-chunk framing overhead is
/// negligible, small enough that snapshots of the paper's models (Table 2)
/// split into enough chunks to occupy a pool.
constexpr size_t kDefaultChunkSize = 1 << 20;  // 1 MiB

/// Compresses `input` with the codec for `kind` into a chunked frame,
/// encoding chunks in parallel on `pool` (the process-wide pool when null).
Result<Bytes> ChunkedFrame(const Bytes& input, CodecKind kind,
                           size_t chunk_size = kDefaultChunkSize,
                           util::ThreadPool* pool = nullptr);

/// Inverse of ChunkedFrame: verifies per-chunk checksums and returns the
/// original payload, decoding chunks in parallel into disjoint regions of
/// the output buffer.
Result<Bytes> ChunkedUnframe(const Bytes& frame,
                             util::ThreadPool* pool = nullptr);

}  // namespace mmlib
