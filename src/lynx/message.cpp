#include "lynx/message.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace lynx {

ValueType type_of(const Value& v) {
  return static_cast<ValueType>(v.index());
}

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kInt: return "int";
    case ValueType::kReal: return "real";
    case ValueType::kString: return "string";
    case ValueType::kBytes: return "bytes";
    case ValueType::kLink: return "link";
  }
  return "?";
}

std::vector<ValueType> Message::signature() const {
  std::vector<ValueType> sig;
  sig.reserve(args.size());
  for (const Value& v : args) sig.push_back(type_of(v));
  return sig;
}

std::size_t Message::count_links() const {
  std::size_t n = 0;
  for (const Value& v : args) {
    if (std::holds_alternative<LinkHandle>(v)) ++n;
  }
  return n;
}

Message make_message(std::string op, std::vector<Value> args) {
  return Message{std::move(op), std::move(args)};
}

namespace {

// Smallest encoding of one argument: a tag and a 4-byte word.
constexpr std::size_t kMinArgBytes = 5;

struct Writer {
  std::uint8_t* out;

  void u8(std::uint8_t v) { *out++ = v; }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void raw(const void* p, std::size_t n) {
    if (n > 0) std::memcpy(out, p, n);
    out += n;
  }
};

struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return in.size() - pos; }
  std::uint8_t u8() {
    RELYNX_ASSERT_MSG(pos < in.size(), "truncated LYNX message");
    return in[pos++];
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  // The next n bytes, read in place.
  const std::uint8_t* span(std::size_t n) {
    RELYNX_ASSERT_MSG(n <= remaining(), "truncated LYNX message");
    const std::uint8_t* p = in.data() + pos;
    pos += n;
    return p;
  }
  std::string str(std::size_t n) {
    return std::string(reinterpret_cast<const char*>(span(n)), n);
  }
  Bytes blob(std::size_t n) {
    const std::uint8_t* p = span(n);
    return Bytes(p, p + n);
  }
};

// Exact encoded size, so serialize() allocates its buffer once.
std::size_t encoded_size(const Message& m) {
  std::size_t n = 4 + m.op.size() + 4;
  for (const Value& v : m.args) {
    n += 1;
    switch (type_of(v)) {
      case ValueType::kInt:
      case ValueType::kReal: n += 8; break;
      case ValueType::kString: n += 4 + std::get<std::string>(v).size(); break;
      case ValueType::kBytes: n += 4 + std::get<Bytes>(v).size(); break;
      case ValueType::kLink: n += 4; break;
    }
  }
  return n;
}

}  // namespace

Serialized serialize(const Message& m, std::size_t headroom) {
  Serialized out;
  out.body = common::Body::make(encoded_size(m), headroom);
  Writer w{out.body.writable()};
  w.u32(static_cast<std::uint32_t>(m.op.size()));
  w.raw(m.op.data(), m.op.size());
  w.u32(static_cast<std::uint32_t>(m.args.size()));
  for (const Value& v : m.args) {
    w.u8(static_cast<std::uint8_t>(type_of(v)));
    switch (type_of(v)) {
      case ValueType::kInt:
        w.u64(static_cast<std::uint64_t>(std::get<std::int64_t>(v)));
        break;
      case ValueType::kReal: {
        std::uint64_t bits;
        const double d = std::get<double>(v);
        std::memcpy(&bits, &d, 8);
        w.u64(bits);
        break;
      }
      case ValueType::kString: {
        const auto& s = std::get<std::string>(v);
        w.u32(static_cast<std::uint32_t>(s.size()));
        w.raw(s.data(), s.size());
        break;
      }
      case ValueType::kBytes: {
        const auto& b = std::get<Bytes>(v);
        w.u32(static_cast<std::uint32_t>(b.size()));
        w.raw(b.data(), b.size());
        break;
      }
      case ValueType::kLink:
        w.u32(static_cast<std::uint32_t>(out.enclosures.size()));
        out.enclosures.push_back(std::get<LinkHandle>(v));
        break;
    }
  }
  RELYNX_ASSERT(w.out == out.body.end());
  return out;
}

Message deserialize(std::span<const std::uint8_t> body,
                    const std::vector<LinkHandle>& enclosures) {
  Reader r{body};
  Message m;
  m.op = r.str(r.u32());
  const std::uint32_t argc = r.u32();
  // The count is unvalidated: reserve no more than the bytes left could
  // encode.
  m.args.reserve(std::min<std::size_t>(argc, r.remaining() / kMinArgBytes));
  for (std::uint32_t i = 0; i < argc; ++i) {
    const auto tag = static_cast<ValueType>(r.u8());
    switch (tag) {
      case ValueType::kInt:
        m.args.emplace_back(static_cast<std::int64_t>(r.u64()));
        break;
      case ValueType::kReal: {
        const std::uint64_t bits = r.u64();
        double d;
        std::memcpy(&d, &bits, 8);
        m.args.emplace_back(d);
        break;
      }
      case ValueType::kString:
        m.args.emplace_back(r.str(r.u32()));
        break;
      case ValueType::kBytes:
        m.args.emplace_back(r.blob(r.u32()));
        break;
      case ValueType::kLink: {
        const std::uint32_t idx = r.u32();
        RELYNX_ASSERT_MSG(idx < enclosures.size(),
                          "enclosure index out of range");
        m.args.emplace_back(enclosures[idx]);
        break;
      }
      default:
        RELYNX_ASSERT_MSG(false, "unknown LYNX value tag");
    }
  }
  return m;
}

}  // namespace lynx
