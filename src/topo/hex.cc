#include "topo/hex.hh"

#include <cassert>

#include "vlsi/bitmath.hh"

namespace ot::topo {

namespace {

/** C = A * B through the systolic pipe, on integer or 0/1 operands. */
template <class M>
MatMulRun
systolic(HexMachine &hex, const M &a, const M &b)
{
    const std::size_t m = a.rows();
    assert(a.cols() == m && b.rows() == m && b.cols() == m &&
           m <= hex.side());

    const ModelTime start = hex.now();
    MatMulRun r;
    r.product = linalg::IntMatrix(m, m, 0);

    // Wavefront schedule: at systolic beat t, every cell on the plane
    // i + j + k = t fires its multiply-accumulate — this is exactly
    // when the skewed a(i, k), b(k, j) and c(i, j) streams meet in the
    // hex array.  3m - 2 beats drain the whole product.  Row i meets
    // the plane at j + k = t - i, so j runs over
    // [max(0, t - i - (m - 1)), min(m - 1, t - i)].
    const auto *b0 = b.rowData(0);
    for (std::size_t t = 0; t <= 3 * (m - 1); ++t) {
        for (std::size_t i = 0; i < m && i <= t; ++i) {
            const std::size_t d = t - i;
            const auto *ai = a.rowData(i);
            std::uint64_t *ci = r.product.rowData(i);
            const std::size_t j_end = d < m ? d + 1 : m;
            for (std::size_t j = d < m ? 0 : d - (m - 1); j < j_end; ++j) {
                const std::size_t k = d - j;
                ci[j] += ai[k] * b0[k * m + j];
            }
        }
        hex.charge(hex.beatCost());
    }
    // Final word drain out of the array boundary.
    hex.charge(hex.cost().wordSeparation());
    r.time = hex.now() - start;
    return r;
}

} // namespace

HexMachine::HexMachine(const MachineSpec &spec)
    : Machine(spec),
      _side(vlsi::nextPow2(spec.n ? spec.n : 1)),
      _layout(_side * _side, cost().word().bits())
{
}

ModelTime
HexMachine::beatCost() const
{
    // Nearest-neighbour word-parallel hop plus the multiply-accumulate
    // (pipelined with the hop; the MAC's serial latency hides behind
    // the systolic beat once the pipe is full, so charge the max).
    ModelTime hop = cost().edgeDelay(_layout.linkLength()) + 1;
    return hop + 1;
}

ModelTime
HexMachine::exchangeStepCost(std::size_t dist) const
{
    // Nearest-neighbour routing on the N x N cell rhombus.
    const std::size_t hops = dist < _side ? dist : dist / _side;
    return 2 * hops * beatCost() + cost().bitSerialOp();
}

ModelTime
HexMachine::broadcastCost() const
{
    return 2 * _side * beatCost();
}

ModelTime
HexMachine::reduceCost() const
{
    return 2 * _side * beatCost() + cost().bitSerialOp();
}

MatMulRun
HexMachine::runMatMul(const linalg::IntMatrix &a, const linalg::IntMatrix &b)
{
    sim::ScopedPhase phase(_acct, "hex-matmul");
    return systolic(*this, a, b);
}

MatMulRun
HexMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                          const linalg::BoolMatrix &b)
{
    // The same pipe counts the AND terms; any nonzero count is a 1.
    sim::ScopedPhase phase(_acct, "hex-matmul");
    MatMulRun r = systolic(*this, a, b);
    for (std::size_t i = 0; i < r.product.rows(); ++i)
        for (std::size_t j = 0; j < r.product.cols(); ++j)
            r.product(i, j) = r.product(i, j) ? 1 : 0;
    return r;
}

} // namespace ot::topo
