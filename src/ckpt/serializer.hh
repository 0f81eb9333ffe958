/**
 * @file
 * Versioned binary checkpoint encoding: a Serializer/Deserializer
 * visitor pair every stateful component implements saveState() /
 * restoreState() against.
 *
 * Format (all integers little-endian):
 *
 *   [8]  magic "ISIMCKPT"
 *   [4]  format version (u32)
 *   then a sequence of sections:
 *   [4]  section tag (fourcc, u32)
 *   [8]  payload length in bytes (u64)
 *   [4]  CRC-32 (IEEE) of the payload
 *   [n]  payload
 *
 * Doubles are encoded as their IEEE-754 bit pattern, so a round trip
 * is bit-exact (including NaN payloads). Components serialize
 * unordered containers in sorted (canonical) order, so encoding the
 * same logical state always yields the same bytes and checkpoint
 * digests can be compared directly.
 *
 * The Deserializer bounds-checks every read and verifies magic,
 * version, section tags, CRCs, and exact section consumption; any
 * mismatch is a clean isim_fatal (PanicError in panic-throw mode),
 * never undefined behaviour. See docs/CHECKPOINT.md.
 */

#ifndef ISIM_CKPT_SERIALIZER_HH
#define ISIM_CKPT_SERIALIZER_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/trace/record.hh"

namespace isim::ckpt {

/**
 * Bump when the encoding changes incompatibly (docs/CHECKPOINT.md).
 * Additive, length-checked trailing fields inside a section (e.g.
 * the legacy META warm-up mode byte) do NOT bump this: readers probe
 * them with sectionRemaining() and default when absent, so older
 * images stay loadable and config digests stay stable.
 */
inline constexpr std::uint32_t formatVersion = 1;

/** "ISIMCKPT" */
inline constexpr std::size_t magicBytes = 8;

/** Build a section tag from a fourcc, e.g. sectionTag("OLTP"). */
constexpr std::uint32_t
sectionTag(const char (&fourcc)[5])
{
    return static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[0])) |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[1]))
               << 8 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[2]))
               << 16 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[3]))
               << 24;
}

namespace detail {

/** `v` in little-endian byte order (the image encoding). */
template <typename T>
inline T
littleEndian(T v)
{
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof(T) == 2)
            return __builtin_bswap16(v);
        else if constexpr (sizeof(T) == 4)
            return __builtin_bswap32(v);
        else if constexpr (sizeof(T) == 8)
            return __builtin_bswap64(v);
    }
    return v;
}

template <typename T>
inline void
storeLe(std::uint8_t *p, T v)
{
    v = littleEndian(v);
    std::memcpy(p, &v, sizeof(v));
}

template <typename T>
inline T
loadLe(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return littleEndian(v);
}

} // namespace detail

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected). Folds sixteen bytes a
 * step with carry-less multiplies where the host has PCLMULQDQ (chosen
 * once, at the first call) and runs slice-by-8 elsewhere; both give
 * the same value.
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

namespace detail {

/** The portable CRC-32: slice-by-8 tables, eight bytes a step. */
std::uint32_t crc32Sliced(const std::uint8_t *data, std::size_t size);

/** True when this host can run crc32Folded(). */
bool crc32FoldSupported();

/** The PCLMULQDQ CRC-32; call only when crc32FoldSupported(). */
std::uint32_t crc32Folded(const std::uint8_t *data, std::size_t size);

} // namespace detail

/** FNV-1a 64-bit hash; used for whole-checkpoint state digests. */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t size);

/**
 * Appends primitive values to a growing byte buffer. Construction
 * writes the magic and version; state is then written as a sequence
 * of CRC-framed sections.
 */
class Serializer
{
  public:
    /**
     * `sizeHint` sizes the buffer once, up front: an image that stays
     * within it is written without regrowing. A larger image still
     * comes out the same, through geometric growth.
     */
    explicit Serializer(std::size_t sizeHint = 0);

    // The primitives are inline: a large image makes millions of calls.
    void u8(std::uint8_t v) { *append(1) = v; }
    void u16(std::uint16_t v) { detail::storeLe(append(2), v); }
    void u32(std::uint32_t v) { detail::storeLe(append(4), v); }
    void u64(std::uint64_t v) { detail::storeLe(append(8), v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Encoded as the IEEE-754 bit pattern (bit-exact round trip). */
    void f64(double v);
    void b(bool v) { u8(v ? 1 : 0); }
    /** u64 length followed by the raw bytes. */
    void str(const std::string &v);
    void memRef(const MemRef &r);

    /** Open a section; every write until endSection() is its payload. */
    void beginSection(std::uint32_t tag);
    /** Close the open section, patching its length and CRC. */
    void endSection();

    /** Moves the finished image out; write nothing more after this. */
    std::vector<std::uint8_t> take();

    /**
     * Room for `n` more bytes; returns where they go. Writers of runs
     * of fixed-size records take a whole run at once and fill it with
     * detail::storeLe, in the byte order the primitives would write.
     */
    std::uint8_t *append(std::size_t n)
    {
        if (buf_.size() - size_ < n)
            buf_.resize(std::max(2 * buf_.size(), size_ + n));
        std::uint8_t *p = buf_.data() + size_;
        size_ += n;
        return p;
    }

  private:
    std::vector<std::uint8_t> buf_; //!< grows geometrically; size_ used
    std::size_t size_ = 0;
    std::size_t headerAt_ = 0; //!< offset of the open section header
    bool sectionOpen_ = false;
};

/** The bytes of a checkpoint file; isim_fatal if unreadable. */
std::vector<std::uint8_t> readCheckpointFile(const std::string &path);

/**
 * Reads values back in the exact order they were written. All errors
 * (truncation, bad magic, version or tag mismatch, CRC failure,
 * trailing bytes) raise isim_fatal with a description of what was
 * expected.
 */
class Deserializer
{
  public:
    /** A view over the caller's image; validates magic and version. */
    explicit Deserializer(std::span<const std::uint8_t> data);
    /** A temporary image would dangle under the view. */
    explicit Deserializer(std::vector<std::uint8_t> &&) = delete;

    std::uint8_t u8() { return *need(1); }
    std::uint16_t u16()
    {
        return detail::loadLe<std::uint16_t>(need(2));
    }
    std::uint32_t u32()
    {
        return detail::loadLe<std::uint32_t>(need(4));
    }
    std::uint64_t u64()
    {
        return detail::loadLe<std::uint64_t>(need(8));
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    bool b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            badBool(v);
        return v != 0;
    }
    std::string str();
    MemRef memRef();

    /** Enter the next section; verifies the tag and payload CRC. */
    void beginSection(std::uint32_t tag);
    /** Leave the section; verifies it was consumed exactly. */
    void endSection();
    /**
     * Bytes left unread in the open section. Lets a reader probe for
     * additive trailing fields written by newer builds (and default
     * them when absent) without a format-version bump.
     */
    std::size_t sectionRemaining() const { return sectionEnd_ - pos_; }

    /** Fatal unless every byte is consumed; call after the last section. */
    void finish() const;

  private:
    /** The next `n` bytes, consumed; fatal past the section or data. */
    const std::uint8_t *need(std::size_t n)
    {
        const std::size_t end = sectionOpen_ ? sectionEnd_ : buf_.size();
        if (end - pos_ < n)
            overrun(n);
        const std::uint8_t *p = buf_.data() + pos_;
        pos_ += n;
        return p;
    }
    /** The fatal of a need() that runs past the section or the data. */
    [[noreturn]] void overrun(std::size_t n) const;
    [[noreturn]] static void badBool(std::uint8_t v);

    std::span<const std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0;
    bool sectionOpen_ = false;
};

} // namespace isim::ckpt

#endif // ISIM_CKPT_SERIALIZER_HH
