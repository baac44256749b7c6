/**
 * @file
 * Batch kernels, written once against a vector view.
 *
 * Each kernel is a function template over a view type V (ScalarVec,
 * Avx2Vec, NeonVec) satisfying the contract documented in
 * vec_scalar.hh: kWidth lanes of u64, whole-lane masks, unsigned
 * compare/min/max, blend, and horizontal sum/min.  The main loop
 * processes V::kWidth words per iteration and a scalar epilogue
 * handles the remainder, so every instantiation computes bit-identical
 * results to ScalarVec — the sum is modular, min is selective, and no
 * kernel reassociates anything the machine model treats as ordered.
 *
 * Kernels never allocate and never touch model-time accounting.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels.hh"

namespace ot::simd {

template <typename V>
void
fillT(std::uint64_t *dst, std::size_t n, std::uint64_t value)
{
    const auto v = V::splat(value);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        V::store(dst + i, v);
    for (; i < n; ++i)
        dst[i] = value;
}

template <typename V>
std::uint64_t
countNonzeroT(const std::uint64_t *src, std::size_t n)
{
    const auto zero = V::splat(0);
    auto acc = V::splat(0);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        acc = V::add(acc, V::eq(V::load(src + i), zero));
    // eq() contributes all-ones (== -1) per zero lane, so the lane sum
    // is minus the number of zero words among the first i.
    std::uint64_t count = i + V::hsum(acc);
    for (; i < n; ++i)
        count += src[i] != 0 ? 1 : 0;
    return count;
}

template <typename V>
std::uint64_t
reduceSumT(const std::uint64_t *src, std::size_t n)
{
    auto acc = V::splat(0);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        acc = V::add(acc, V::load(src + i));
    std::uint64_t sum = V::hsum(acc);
    for (; i < n; ++i)
        sum += src[i];
    return sum;
}

template <typename V>
std::uint64_t
reduceMinT(const std::uint64_t *src, std::size_t n)
{
    auto acc = V::splat(kNullWord);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        acc = V::minU(acc, V::load(src + i));
    std::uint64_t m = V::hminU(acc);
    for (; i < n; ++i)
        m = src[i] < m ? src[i] : m;
    return m;
}

template <typename V>
void
accumSumT(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t x = 0;
    for (; x + V::kWidth <= n; x += V::kWidth)
        V::store(dst + x, V::add(V::load(dst + x), V::load(src + x)));
    for (; x < n; ++x)
        dst[x] += src[x];
}

template <typename V>
void
accumMinT(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t x = 0;
    for (; x + V::kWidth <= n; x += V::kWidth)
        V::store(dst + x, V::minU(V::load(dst + x), V::load(src + x)));
    for (; x < n; ++x)
        dst[x] = src[x] < dst[x] ? src[x] : dst[x];
}

template <typename V>
void
accumMinEqIndexRowT(std::uint64_t *dst, const std::uint64_t *key,
                    const std::uint64_t *val, std::size_t n)
{
    const auto nullv = V::splat(kNullWord);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto m = V::eq(V::load(key + j), V::iota(j));
        const auto v = V::blend(m, V::load(val + j), nullv);
        V::store(dst + j, V::minU(V::load(dst + j), v));
    }
    for (; j < n; ++j)
        if (key[j] == j && val[j] < dst[j])
            dst[j] = val[j];
}

template <typename V>
void
enumRankT(std::uint64_t *rank, const std::uint64_t *x, std::size_t n)
{
    // Word j < i ranks below x[i] unless it is greater; word j > i only
    // if it is smaller.  gtU() gives all-ones (== -1) per true lane, so
    // each lane sum is minus its count.
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = x[i];
        const auto vv = V::splat(v);
        auto above = V::splat(0);
        std::size_t j = 0;
        for (; j + V::kWidth <= i; j += V::kWidth)
            above = V::add(above, V::gtU(V::load(x + j), vv));
        std::uint64_t r = i + V::hsum(above);
        for (; j < i; ++j)
            r -= x[j] > v ? 1 : 0;
        auto below = V::splat(0);
        for (j = i + 1; j + V::kWidth <= n; j += V::kWidth)
            below = V::add(below, V::gtU(vv, V::load(x + j)));
        r -= V::hsum(below);
        for (; j < n; ++j)
            r += x[j] < v ? 1 : 0;
        rank[i] = r;
    }
}

template <typename V>
void
pickEqIndexAccumT(std::uint64_t *out, std::uint64_t *matches,
                  const std::uint64_t *key, const std::uint64_t *val,
                  std::size_t n, std::uint64_t target)
{
    const auto tv = V::splat(target);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        // Matches are rare (the primitives assert at most one per
        // span), so only drop to lane-at-a-time on a hit.
        if (V::any(V::eq(V::load(key + j), tv))) {
            for (std::size_t k = j; k < j + V::kWidth; ++k) {
                if (key[k] == target) {
                    *out = val[k];
                    ++*matches;
                }
            }
        }
    }
    for (; j < n; ++j) {
        if (key[j] == target) {
            *out = val[j];
            ++*matches;
        }
    }
}

template <typename V>
void
compexLinearT(std::uint64_t *data, std::size_t total, std::size_t d,
              std::size_t size)
{
    // Pairs are (l, l ^ d) for (l & d) == 0, i.e. the first half of
    // each 2d-aligned block against the second half.  Because
    // size >= 2d in every bitonic sweep, the sort direction
    // ((l & size) == 0) is constant across a block, so each block is
    // one branch-free min/max pass.
    for (std::size_t base = 0; base < total; base += 2 * d) {
        const bool asc = (base & size) == 0;
        std::size_t l = base;
        if (d >= V::kWidth) {
            for (; l < base + d; l += V::kWidth) {
                const auto lo = V::load(data + l);
                const auto hi = V::load(data + l + d);
                const auto mn = V::minU(lo, hi);
                const auto mx = V::maxU(lo, hi);
                V::store(data + l, asc ? mn : mx);
                V::store(data + l + d, asc ? mx : mn);
            }
        }
        for (; l < base + d; ++l) {
            const std::uint64_t lo = data[l];
            const std::uint64_t hi = data[l + d];
            const bool swap = asc ? lo > hi : lo < hi;
            if (swap) {
                data[l] = hi;
                data[l + d] = lo;
            }
        }
    }
}

template <typename V>
void
rotateCyclesT(std::uint64_t *base, std::size_t count, std::size_t stride,
              std::size_t l)
{
    if (l < 2)
        return;
    if (count > 1 && stride == l) {
        // Back-to-back cycles: shift the whole run down one word in a
        // single move, which leaves each cycle's old first word in the
        // last slot of the cycle before; then walk the last slots,
        // handing every cycle its own first word.
        std::uint64_t carry = base[0];
        std::memmove(base, base + 1,
                     (count * l - 1) * sizeof(std::uint64_t));
        for (std::size_t c = 0; c < count; ++c) {
            std::uint64_t &last = base[c * l + l - 1];
            const std::uint64_t next_first = last;
            last = carry;
            carry = next_first;
        }
        return;
    }
    for (std::size_t c = 0; c < count; ++c) {
        std::uint64_t *s = base + c * stride;
        const std::uint64_t first = s[0];
        std::memmove(s, s + 1, (l - 1) * sizeof(std::uint64_t));
        s[l - 1] = first;
    }
}

} // namespace ot::simd
