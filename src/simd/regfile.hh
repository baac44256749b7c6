/**
 * @file
 * Struct-of-arrays register file for the network simulators.
 *
 * Instead of a vector-of-vectors (one heap block per named register),
 * every register is one contiguous, cache-line-aligned lane — a
 * "plane" of machine words — inside a single allocation, indexed by
 * the register's enumerator value.  The batch kernels
 * (simd/kernels.hh) stream whole rows or levels of a plane with
 * vector loads, so this layout *is* the optimization: one level of
 * one register is one contiguous span, and every plane starts on a
 * vector-friendly boundary.
 *
 * RegFile owns storage only and performs no model-time accounting.
 * It pays only for the planes a run touches:
 *
 *  - Zero on demand.  The single block comes from calloc, so the
 *    power-on state (all zero) costs nothing up front: the OS maps
 *    zero pages, and a plane that is never written is never faulted
 *    in — no resident memory, no set-up time.
 *  - Dirty mask.  Every non-const accessor (plane(), at()) sets the
 *    plane's bit in a mask; the const accessors do not.  zeroDirty()
 *    returns the file to its power-on state by zeroing only the
 *    marked planes, so a machine's reset() costs what its last run
 *    wrote, not the whole file.
 *
 * The mask is a plain word, tested before it is set, because at() is
 * the per-element accessor of every register write and an atomic
 * there slows the element loops.  A file whose planes are written
 * from several host threads at once is built `concurrent`: every
 * plane then stays marked, so the threads only ever read the mask,
 * and zeroDirty() clears the whole file.
 *
 * The mask sees a write only through the accessor call that hands
 * out the pointer or reference.  Hence the rule: no plane pointer
 * (or word reference) may be held across a zeroDirty() — i.e. across
 * a machine's reset() — and written through afterwards.  Take it
 * afresh from plane()/at() in each run.
 */

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

namespace ot::simd {

/** SoA block of `planes` equally sized u64 lanes, 64-byte aligned. */
class RegFile
{
  public:
    /** Alignment of every plane, in bytes (one x86 cache line; a
     *  multiple of every vector width we dispatch to). */
    static constexpr std::size_t kAlign = 64;

    /** Planes the dirty mask can track (one bit each). */
    static constexpr unsigned kMaxPlanes = 32;

    /**
     * @param concurrent  The planes are written from several host threads
     *                    at once (a network whose parallelFor runs on
     *                    more than one lane): keep every plane marked.
     */
    RegFile(unsigned planes, std::size_t plane_size, bool concurrent = false)
        : _planes(planes),
          _planeSize(plane_size),
          _stride(roundUp(plane_size)),
          _block(allocateZeroed(_stride * planes * sizeof(std::uint64_t))),
          _data(alignedStart(_block.get(),
                             _stride * planes * sizeof(std::uint64_t))),
          _keep(concurrent ? ~std::uint32_t{0} >> (kMaxPlanes - planes) : 0),
          _dirty(_keep)
    {
        assert(planes >= 1 && planes <= kMaxPlanes);
    }

    /** Number of planes (named registers). */
    unsigned planes() const { return _planes; }

    /** Words per plane (the machine's base-processor count). */
    std::size_t planeSize() const { return _planeSize; }

    /** Contiguous lane of register `p` (aligned to kAlign); marks
     *  the plane dirty. */
    std::uint64_t *
    plane(unsigned p)
    {
        assert(p < _planes);
        markDirty(p);
        return _data + p * _stride;
    }

    const std::uint64_t *
    plane(unsigned p) const
    {
        assert(p < _planes);
        return _data + p * _stride;
    }

    /** Word `i` of plane `p` (the scalar element accessor); marks the
     *  plane dirty. */
    std::uint64_t &
    at(unsigned p, std::size_t i)
    {
        assert(p < _planes && i < _planeSize);
        markDirty(p);
        return _data[p * _stride + i];
    }

    std::uint64_t
    at(unsigned p, std::size_t i) const
    {
        assert(p < _planes && i < _planeSize);
        return _data[p * _stride + i];
    }

    /** Bit p set iff plane p was handed out mutably since the last
     *  zeroDirty() (or construction), or the file is concurrent. */
    std::uint32_t
    dirtyMask() const
    {
        return _dirty;
    }

    /** Zero every dirty plane and clear the mask (a concurrent file
     *  keeps every plane marked): back to the power-on state.  Not to
     *  be called while a parallel section is writing. */
    void
    zeroDirty()
    {
        const std::uint32_t mask = _dirty;
        _dirty = _keep;
        for (unsigned p = 0; p < _planes; ++p)
            if (mask & (std::uint32_t{1} << p))
                std::memset(_data + p * _stride, 0,
                            _planeSize * sizeof(std::uint64_t));
    }

  private:
    struct FreeDeleter
    {
        void
        operator()(void *p) const
        {
            std::free(p);
        }
    };

    static std::size_t
    roundUp(std::size_t words)
    {
        constexpr std::size_t per = kAlign / sizeof(std::uint64_t);
        return (words + per - 1) / per * per;
    }

    /** calloc with kAlign bytes of slack to align inside. */
    static std::unique_ptr<void, FreeDeleter>
    allocateZeroed(std::size_t bytes)
    {
        void *raw = std::calloc(bytes + kAlign, 1);
        if (!raw)
            throw std::bad_alloc();
        return std::unique_ptr<void, FreeDeleter>(raw);
    }

    static std::uint64_t *
    alignedStart(void *raw, std::size_t bytes)
    {
        std::size_t space = bytes + kAlign;
        void *p = std::align(kAlign, bytes, raw, space);
        assert(p && "RegFile: over-allocation too small to align");
        return static_cast<std::uint64_t *>(p);
    }

    void
    markDirty(unsigned p)
    {
        // Test first: once the bit is set (always, in a concurrent file)
        // marking only reads the mask.
        const std::uint32_t bit = std::uint32_t{1} << p;
        if (!(_dirty & bit))
            _dirty |= bit;
    }

    unsigned _planes;
    std::size_t _planeSize;
    std::size_t _stride;
    std::unique_ptr<void, FreeDeleter> _block;
    std::uint64_t *_data;
    std::uint32_t _keep; //!< planes that stay marked (all, if concurrent)
    std::uint32_t _dirty;
};

} // namespace ot::simd
