#include "query/page_token.h"

#include <cstring>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "storage/codec.h"

namespace dt::query {

using storage::DocValue;

namespace {

/// Version salt: folded into the seal so tokens from a prior or future
/// format revision fail the checksum instead of misparsing. "DTPT1"
/// tokens carried a (fingerprint, epoch, checkpoint) triple, "DTPT2" a
/// lineage quadruple without the walk bound; "DTPT3" carries the five
/// fields below.
constexpr std::string_view kTokenSalt = "DTPT3";

uint64_t Seal(std::string_view payload) {
  return HashCombine(Fnv1a64(kTokenSalt), Fnv1a64(payload));
}

}  // namespace

std::string EncodePageToken(uint64_t fingerprint, uint64_t incarnation,
                            uint64_t version_id, int64_t walk_bound,
                            const DocValue& checkpoint) {
  DocValue payload = DocValue::Array();
  payload.Push(DocValue::Int(static_cast<int64_t>(fingerprint)));
  payload.Push(DocValue::Int(static_cast<int64_t>(incarnation)));
  payload.Push(DocValue::Int(static_cast<int64_t>(version_id)));
  payload.Push(DocValue::Int(walk_bound));
  payload.Push(checkpoint);
  std::string bytes;
  // Encoding an in-memory value cannot fail (no IO, bounded depth).
  RethrowIfError(storage::EncodeDocValue(payload, &bytes));
  uint64_t seal = Seal(bytes);
  char tail[8];
  for (int i = 0; i < 8; ++i) {
    tail[i] = static_cast<char>((seal >> (8 * i)) & 0xff);
  }
  bytes.append(tail, 8);
  return bytes;
}

Status DecodePageToken(std::string_view token, uint64_t* fingerprint,
                       uint64_t* incarnation, uint64_t* version_id,
                       int64_t* walk_bound, DocValue* checkpoint) {
  const Status invalid =
      Status::InvalidArgument("malformed resume token (truncated or tampered)");
  if (token.size() < 9) return invalid;
  std::string_view payload = token.substr(0, token.size() - 8);
  uint64_t seal = 0;
  for (int i = 0; i < 8; ++i) {
    seal |= static_cast<uint64_t>(
                static_cast<unsigned char>(token[payload.size() + i]))
            << (8 * i);
  }
  if (seal != Seal(payload)) return invalid;
  DocValue decoded;
  if (!storage::DecodeDocValue(payload, &decoded).ok()) return invalid;
  if (!decoded.is_array() || decoded.array_items().size() != 5) {
    return invalid;
  }
  const DocValue& fp = decoded.array_items()[0];
  const DocValue& inc = decoded.array_items()[1];
  const DocValue& vid = decoded.array_items()[2];
  const DocValue& bound = decoded.array_items()[3];
  if (!fp.is_int() || !inc.is_int() || !vid.is_int() || !bound.is_int() ||
      bound.int_value() < -1) {
    return invalid;
  }
  *fingerprint = static_cast<uint64_t>(fp.int_value());
  *incarnation = static_cast<uint64_t>(inc.int_value());
  *version_id = static_cast<uint64_t>(vid.int_value());
  *walk_bound = bound.int_value();
  *checkpoint = decoded.array_items()[4];
  return Status::OK();
}

}  // namespace dt::query
