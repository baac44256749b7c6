#include "otn/integer_multiply.hh"

#include <cassert>

#include "vlsi/bitmath.hh"

namespace ot::otn {

MultiplyResult
integerMultiplyOtn(OrthogonalTreesNetwork &net, std::uint64_t a,
                   std::uint64_t b, unsigned bits)
{
    assert(bits >= 1 && bits <= 31);
    const std::size_t n = net.n();
    assert(n >= 2 * bits);
    assert(a < (std::uint64_t{1} << bits) && b < (std::uint64_t{1} << bits));

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "integer-multiply-otn");

    // Toeplitz matrix of b: B(k, j) = bit_(j-k) of b.
    {
        linalg::IntMatrix toeplitz(n, n, 0);
        for (std::size_t k = 0; k < bits; ++k)
            for (unsigned p = 0; p < bits; ++p)
                toeplitz(k, k + p) = (b >> p) & 1;
        net.loadBase(Reg::B, toeplitz, /*charged=*/true, /*separation=*/1);
    }

    // Bits of a at the row roots.  Broadcast along the rows, ANDed with
    // the Toeplitz bits and summed down the columns, they give
    // digit(j) = sum_k a_k * b_(j-k), each < bits: a Boolean
    // vector-matrix product with unit multiply cost.
    {
        std::vector<std::uint64_t> abits(n, 0);
        for (unsigned k = 0; k < bits; ++k)
            abits[k] = (a >> k) & 1;
        net.setRowRootInputs(abits);
    }
    net.batchVecMat(Reg::B, /*mul_cost=*/1, /*boolean=*/true);

    std::vector<std::uint64_t> digits(2 * bits, 0);
    for (std::size_t j = 0; j < 2 * bits; ++j)
        digits[j] = net.colRoot(j);

    // Carry resolution: each digit is < bits, i.e. has at most
    // ceil(log2 bits) + 1 bit planes.  Plane p is a binary number that
    // is shifted p positions (one tree-routing pass each) and added in
    // (one carry-lookahead scan over the digit row, two combining
    // traversals).  This is the O(log w) pass structure of [8].
    MultiplyResult result;
    std::uint64_t max_digit = 0;
    for (auto d : digits)
        max_digit = std::max(max_digit, d);
    unsigned planes =
        max_digit <= 1 ? 0 : vlsi::ilog2Floor(max_digit) + 1;
    for (unsigned p = 1; p < planes; ++p) {
        // shift of plane p by one more position + carry-lookahead add
        net.charge(net.treeTraversalCost());
        net.charge(2 * net.treeReduceCost());
        ++result.carryPasses;
    }
    // Final carry-propagating addition of the assembled planes.
    net.charge(2 * net.treeReduceCost());
    ++result.carryPasses;

    std::uint64_t value = 0;
    for (std::size_t j = 2 * bits; j-- > 0;)
        value = (value << 1) + digits[j];
    result.product = value;
    result.time = net.now() - start;
    return result;
}

MultiplyResult
integerMultiplyOtn(std::uint64_t a, std::uint64_t b, unsigned bits,
                   vlsi::DelayModel model)
{
    // Column sums reach `bits`, so the machine word must hold them.
    unsigned word_bits = vlsi::logCeilAtLeast1(bits + 1) + 2;
    vlsi::CostModel cost(model, vlsi::WordFormat(word_bits));
    OrthogonalTreesNetwork net(2 * bits, cost);
    return integerMultiplyOtn(net, a, b, bits);
}

} // namespace ot::otn
