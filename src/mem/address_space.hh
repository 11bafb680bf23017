/**
 * @file
 * Itanium-style virtual address space: regions and unimplemented bits.
 *
 * The 64-bit virtual address space is partitioned into eight
 * equally-sized regions selected by VA[63:61]. Within a region only the
 * low kImplementedBits offset bits are implemented; addresses with any
 * bit set in the "unimplemented hole" (bits 60..kImplementedBits) are
 * illegal and fault. This hole is why SHIFT cannot translate a virtual
 * address to a tag address with one shift (paper section 4.1, figure 4):
 * it must move the region number down next to the implemented bits
 * before shifting, which makes tag-address computation the dominant
 * instrumentation cost (figure 9).
 *
 * Region roles in this system:
 *   0 - tag space (reclaimed; reserved for IA-32 on real Itanium)
 *   1 - function descriptors (code "addresses")
 *   2 - globals and heap
 *   3 - stacks
 *   4 - OS scratch (argument/IO staging)
 */

#ifndef SHIFT_MEM_ADDRESS_SPACE_HH
#define SHIFT_MEM_ADDRESS_SPACE_HH

#include <cstdint>

namespace shift
{

/** Implemented offset bits within a region. */
constexpr unsigned kImplementedBits = 36;

/** Bit position of the region number. */
constexpr unsigned kRegionShift = 61;

/** Region roles. */
constexpr unsigned kTagRegion = 0;
constexpr unsigned kCodeRegion = 1;
constexpr unsigned kDataRegion = 2;
constexpr unsigned kStackRegion = 3;
constexpr unsigned kOsRegion = 4;

/** Base virtual address of a region. */
constexpr uint64_t
regionBase(unsigned region)
{
    return static_cast<uint64_t>(region) << kRegionShift;
}

/** Region number of a virtual address. */
constexpr unsigned
regionOf(uint64_t va)
{
    return static_cast<unsigned>(va >> kRegionShift);
}

/** Offset of a virtual address within its region. */
constexpr uint64_t
regionOffset(uint64_t va)
{
    return va & ((1ULL << kImplementedBits) - 1);
}

/**
 * True when the address touches no unimplemented bits. Bits
 * [60:kImplementedBits] must all be zero.
 */
constexpr bool
isImplemented(uint64_t va)
{
    uint64_t hole = (va >> kImplementedBits) &
                    ((1ULL << (kRegionShift - kImplementedBits)) - 1);
    return hole == 0;
}

/**
 * A guaranteed-invalid address (inside the unimplemented hole). The
 * SHIFT instrumenter speculatively loads from it to conjure a register
 * whose NaT bit is set (paper figure 5, instruction 1).
 */
constexpr uint64_t kInvalidAddress = 1ULL << kImplementedBits;

/**
 * The guest stack window in region 3: [kStackBase, kStackBase +
 * kStackSize). It is demand-zero like the tag and OS regions (a touch
 * allocates a zero page), so a machine pays only for the stack pages
 * its program uses; the rest of region 3 stays unmapped, so a stack
 * that outgrows the window faults.
 */
constexpr uint64_t kStackBase = regionBase(kStackRegion) + 0x10000;
constexpr uint64_t kStackSize = 4ULL << 20;

/** Tag-tracking granularity. */
enum class Granularity : uint8_t
{
    Byte, ///< one tag bit per byte of memory
    Word, ///< one tag bit per 8-byte word ("word" = 8 bytes in the paper)
};

/** log2(bytes covered by one tag bit). */
constexpr unsigned
granularityShift(Granularity g)
{
    return g == Granularity::Byte ? 0 : 3;
}

/**
 * Translate a data virtual address to the address of the tag byte that
 * holds its taint bit (figure 4): fold the region number down into the
 * implemented bits, then shift by the bitmap density. The resulting
 * address falls in region 0 (the tag space).
 *
 * Byte granularity: 1 tag bit per byte  -> tag byte covers 8 bytes.
 * Word granularity: 1 tag bit per word  -> tag byte covers 64 bytes.
 */
constexpr uint64_t
tagByteAddr(uint64_t va, Granularity g)
{
    uint64_t folded = (static_cast<uint64_t>(regionOf(va))
                       << kImplementedBits) |
                      regionOffset(va);
    return folded >> (3 + granularityShift(g));
}

/** Bit index of va's taint bit within its tag byte. */
constexpr unsigned
tagBitIndex(uint64_t va, Granularity g)
{
    return static_cast<unsigned>((va >> granularityShift(g)) & 7);
}

} // namespace shift

#endif // SHIFT_MEM_ADDRESS_SPACE_HH
