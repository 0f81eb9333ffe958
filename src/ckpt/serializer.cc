#include "src/ckpt/serializer.hh"

#include <array>
#include <cstring>
#include <fstream>

#include "src/base/logging.hh"

namespace isim::ckpt {

namespace {

constexpr char kMagic[magicBytes + 1] = "ISIMCKPT";

// tag(4) + length(8) + crc(4)
constexpr std::size_t kSectionHeaderBytes = 16;

std::string
fourccName(std::uint32_t tag_value)
{
    std::string name;
    for (int i = 0; i < 4; ++i) {
        const char c =
            static_cast<char>((tag_value >> (8 * i)) & 0xff);
        name += (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return name;
}

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables: row 0 is the bytewise table; row k advances a
 * byte's contribution k more bytes through the register.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

} // namespace

using detail::loadLe;
using detail::storeLe;

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    std::uint32_t crc = 0xffffffffu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = loadLe<std::uint32_t>(data) ^ crc;
        const std::uint32_t hi = loadLe<std::uint32_t>(data + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
              t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
              t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

Serializer::Serializer()
{
    std::memcpy(append(magicBytes), kMagic, magicBytes);
    u32(formatVersion);
}

void
Serializer::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Serializer::str(const std::string &v)
{
    u64(v.size());
    if (!v.empty())
        std::memcpy(append(v.size()), v.data(), v.size());
}

void
Serializer::memRef(const MemRef &r)
{
    u8(static_cast<std::uint8_t>(r.kind));
    b(r.kernel);
    u8(r.depDist);
    u16(r.instrCount);
    u64(r.paddr);
}

void
Serializer::beginSection(std::uint32_t tag)
{
    isim_assert(!sectionOpen_, "nested checkpoint section");
    sectionOpen_ = true;
    headerAt_ = size_;
    u32(tag);
    u64(0); // payload length, patched by endSection()
    u32(0); // payload CRC, patched by endSection()
}

void
Serializer::endSection()
{
    isim_assert(sectionOpen_, "endSection without beginSection");
    sectionOpen_ = false;
    const std::size_t payload_at = headerAt_ + kSectionHeaderBytes;
    const std::uint64_t len = size_ - payload_at;
    storeLe(buf_.data() + headerAt_ + 4, len);
    storeLe(buf_.data() + headerAt_ + 12,
            crc32(buf_.data() + payload_at, len));
}

std::vector<std::uint8_t>
Serializer::take()
{
    isim_assert(!sectionOpen_, "take with an open section");
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
}

Deserializer::Deserializer(std::vector<std::uint8_t> data)
    : buf_(std::move(data))
{
    if (buf_.size() < magicBytes + 4)
        isim_fatal("checkpoint truncated: %zu bytes, need at least "
                   "%zu for the header",
                   buf_.size(), magicBytes + 4);
    if (std::memcmp(buf_.data(), kMagic, magicBytes) != 0)
        isim_fatal("not a checkpoint: bad magic (want \"%s\")", kMagic);
    pos_ = magicBytes;
    const std::uint32_t version = u32();
    if (version != formatVersion)
        isim_fatal("checkpoint format version %u unsupported "
                   "(this build reads version %u)",
                   version, formatVersion);
}

Deserializer
Deserializer::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        isim_fatal("cannot open checkpoint '%s'", path.c_str());
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(data.data()), size);
    if (!in)
        isim_fatal("read of checkpoint '%s' failed", path.c_str());
    return Deserializer(std::move(data));
}

void
Deserializer::overrun(std::size_t n) const
{
    if (buf_.size() - pos_ < n)
        isim_fatal("checkpoint truncated: need %zu bytes at offset "
                   "%zu, only %zu remain",
                   n, pos_, buf_.size() - pos_);
    isim_fatal("checkpoint section overrun: read of %zu bytes at "
               "offset %zu crosses the section end at %zu",
               n, pos_, sectionEnd_);
}

void
Deserializer::badBool(std::uint8_t v)
{
    isim_fatal("checkpoint corrupt: bool byte is %u", v);
}

double
Deserializer::f64()
{
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::str()
{
    const std::uint64_t len = u64();
    const std::uint8_t *p = need(len);
    return std::string(reinterpret_cast<const char *>(p), len);
}

MemRef
Deserializer::memRef()
{
    MemRef r;
    const std::uint8_t kind = u8();
    if (kind > static_cast<std::uint8_t>(RefKind::Store))
        isim_fatal("checkpoint corrupt: MemRef kind %u", kind);
    r.kind = static_cast<RefKind>(kind);
    r.kernel = b();
    r.depDist = u8();
    r.instrCount = u16();
    r.paddr = u64();
    return r;
}

void
Deserializer::beginSection(std::uint32_t tag)
{
    isim_assert(!sectionOpen_, "nested checkpoint section");
    const std::uint32_t got = u32();
    if (got != tag)
        isim_fatal("checkpoint section mismatch: want '%s', found "
                   "'%s'",
                   fourccName(tag).c_str(), fourccName(got).c_str());
    const std::uint64_t len = u64();
    const std::uint32_t want_crc = u32();
    if (buf_.size() - pos_ < len)
        isim_fatal("checkpoint truncated inside section '%s': length "
                   "says %llu bytes, only %zu remain",
                   fourccName(tag).c_str(),
                   static_cast<unsigned long long>(len),
                   buf_.size() - pos_);
    const std::uint32_t got_crc = crc32(buf_.data() + pos_, len);
    if (got_crc != want_crc)
        isim_fatal("checkpoint section '%s' failed its CRC check "
                   "(stored %08x, computed %08x) — file corrupt",
                   fourccName(tag).c_str(), want_crc, got_crc);
    sectionOpen_ = true;
    sectionEnd_ = pos_ + len;
}

void
Deserializer::endSection()
{
    isim_assert(sectionOpen_, "endSection without beginSection");
    if (pos_ != sectionEnd_)
        isim_fatal("checkpoint section not fully consumed: %zu bytes "
                   "left (format skew between writer and reader?)",
                   sectionEnd_ - pos_);
    sectionOpen_ = false;
}

void
Deserializer::finish() const
{
    if (pos_ != buf_.size())
        isim_fatal("checkpoint has %zu trailing bytes after the last "
                   "section",
                   buf_.size() - pos_);
}

} // namespace isim::ckpt
