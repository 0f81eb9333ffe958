#include "src/ckpt/serializer.hh"

#include <array>
#include <cstring>
#include <fstream>

#include "src/base/logging.hh"

// The folded CRC needs x86-64's carry-less multiply (PCLMULQDQ); the
// target attribute compiles it without raising the baseline, and
// crc32() picks it only on a host that has the instruction.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ISIM_CRC_FOLD 1
#include <immintrin.h>
#else
#define ISIM_CRC_FOLD 0
#endif

namespace isim::ckpt {

using detail::loadLe;
using detail::storeLe;

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

/** The reflected IEEE polynomial (x^32 implicit). */
constexpr std::uint32_t kCrcPolyReflected = 0xedb88320u;

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
            c = (c & 1) ? kCrcPolyReflected ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** Advance the CRC register `crc` over `size` bytes, slice-by-8. */
std::uint32_t
crc32Update(std::uint32_t crc, const std::uint8_t *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
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
    return crc;
}

#if ISIM_CRC_FOLD

/*
 * Folding constants of Gopal et al., "Fast CRC Computation for
 * Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), for
 * the bit-reflected domain: k = reflect32(x^n mod P) << 1, a 33-bit
 * value, and the Barrett pair P' and mu' = reflect33(x^64 div P).
 */

/** The unreflected polynomial's low 32 bits (x^32 implicit). */
constexpr std::uint32_t kCrcPoly = 0x04c11db7u;

/** x^n mod P(x), bit i the coefficient of x^i. */
constexpr std::uint32_t
xPowModP(unsigned n)
{
    std::uint32_t r = 1;
    for (unsigned i = 0; i < n; ++i)
        r = (r & 0x80000000u) ? (r << 1) ^ kCrcPoly : r << 1;
    return r;
}

/** The low `bits` bits of `v`, in reverse order. */
constexpr std::uint64_t
reflectBits(std::uint64_t v, unsigned bits)
{
    std::uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i)
        r |= ((v >> i) & 1) << (bits - 1 - i);
    return r;
}

/** The folding constant that moves a 64-bit half `n` bits ahead. */
constexpr std::uint64_t
foldConstant(unsigned n)
{
    return reflectBits(xPowModP(n), 32) << 1;
}

/** floor(x^64 / P(x)), a polynomial of degree 32. */
constexpr std::uint64_t
xPow64DivP()
{
    constexpr std::uint64_t p = std::uint64_t{1} << 32 | kCrcPoly;
    // The x^64 step: quotient bit 32, remainder x^64 - x^32 * P.
    std::uint64_t q = std::uint64_t{1} << 32;
    std::uint64_t r = std::uint64_t{kCrcPoly} << 32;
    for (unsigned i = 64; i-- > 32;) {
        if ((r >> i) & 1) {
            q |= std::uint64_t{1} << (i - 32);
            r ^= p << (i - 32);
        }
    }
    return q;
}

// Four 128-bit lanes fold 512 bits a step; one lane folds 128.
constexpr std::uint64_t kK1 = foldConstant(4 * 128 + 32);
constexpr std::uint64_t kK2 = foldConstant(4 * 128 - 32);
constexpr std::uint64_t kK3 = foldConstant(128 + 32);
constexpr std::uint64_t kK4 = foldConstant(128 - 32);
constexpr std::uint64_t kK5 = foldConstant(64);
constexpr std::uint64_t kPolyReflected =
    reflectBits(std::uint64_t{1} << 32 | kCrcPoly, 33);
constexpr std::uint64_t kMuReflected = reflectBits(xPow64DivP(), 33);
static_assert(kPolyReflected == (std::uint64_t{kCrcPolyReflected} << 1 | 1));

/** Sixteen bytes at `p`, any alignment. */
__m128i
load16(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Two 64-bit constants as one register, `lo` in the low half. */
__m128i
pair(std::uint64_t lo, std::uint64_t hi)
{
    return _mm_set_epi64x(static_cast<long long>(hi),
                          static_cast<long long>(lo));
}

/** One fold step: `x` moved ahead by `k` (low half by k's low, high by
 *  its high), xored into the next 128 bits. */
__attribute__((target("pclmul"))) inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * Advance the CRC register `crc` over `size` bytes, `size` >= 64 and
 * a multiple of 16: fold four lanes, fold them into one, fold 128
 * bits to 64 and Barrett-reduce to 32.
 */
__attribute__((target("pclmul"))) std::uint32_t
crc32Fold(std::uint32_t crc, const std::uint8_t *data, std::size_t size)
{
    __m128i x1 = _mm_xor_si128(load16(data),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load16(data + 16);
    __m128i x3 = load16(data + 32);
    __m128i x4 = load16(data + 48);
    data += 64;
    size -= 64;

    const __m128i k1k2 = pair(kK1, kK2);
    for (; size >= 64; data += 64, size -= 64) {
        x1 = fold(x1, k1k2, load16(data));
        x2 = fold(x2, k1k2, load16(data + 16));
        x3 = fold(x3, k1k2, load16(data + 32));
        x4 = fold(x4, k1k2, load16(data + 48));
    }

    const __m128i k3k4 = pair(kK3, kK4);
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; size >= 16; data += 16, size -= 16)
        x1 = fold(x1, k3k4, load16(data));

    // 128 -> 64 bits: the low half times k4 joins the high half.
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    // 64 -> 32 bits (k5), then the Barrett reduction.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, low32),
                                            pair(kK5, 0), 0x00));
    const __m128i barrett = pair(kPolyReflected, kMuReflected);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), barrett,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif // ISIM_CRC_FOLD

} // namespace

namespace detail {

std::uint32_t
crc32Sliced(const std::uint8_t *data, std::size_t size)
{
    return crc32Update(0xffffffffu, data, size) ^ 0xffffffffu;
}

bool
crc32FoldSupported()
{
#if ISIM_CRC_FOLD
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul");
#else
    return false;
#endif
}

std::uint32_t
crc32Folded(const std::uint8_t *data, std::size_t size)
{
#if ISIM_CRC_FOLD
    std::uint32_t crc = 0xffffffffu;
    if (size >= 64) {
        const std::size_t folded = size & ~std::size_t{15};
        crc = crc32Fold(crc, data, folded);
        data += folded;
        size -= folded;
    }
    return crc32Update(crc, data, size) ^ 0xffffffffu;
#else
    isim_panic("crc32Folded on a build without the folded CRC");
#endif
}

} // namespace detail

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    static const bool folded = detail::crc32FoldSupported();
    return folded ? detail::crc32Folded(data, size)
                  : detail::crc32Sliced(data, size);
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

Serializer::Serializer(std::size_t sizeHint)
{
    buf_.resize(sizeHint);
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

Deserializer::Deserializer(std::span<const std::uint8_t> data)
    : buf_(data)
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

std::vector<std::uint8_t>
readCheckpointFile(const std::string &path)
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
    return data;
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
