/**
 * @file
 * Scalar kernel table: the portable fallback and semantic reference.
 */

#include "simd/kernels.hh"

#include "simd/kernels_generic.hh"
#include "simd/vec_scalar.hh"

namespace ot::simd {

namespace {

constexpr KernelTable kScalarTable = {
    .fill = fillT<ScalarVec>,
    .countNonzero = countNonzeroT<ScalarVec>,
    .reduceSum = reduceSumT<ScalarVec>,
    .reduceMin = reduceMinT<ScalarVec>,
    .accumSum = accumSumT<ScalarVec>,
    .accumMin = accumMinT<ScalarVec>,
    .accumMinEqIndexRow = accumMinEqIndexRowT<ScalarVec>,
    .enumRank = enumRankT<ScalarVec>,
    .pickEqIndexAccum = pickEqIndexAccumT<ScalarVec>,
    .compexLinear = compexLinearT<ScalarVec>,
    .rotateCycles = rotateCyclesT<ScalarVec>,
};

} // namespace

const KernelTable &
scalarKernels()
{
    return kScalarTable;
}

} // namespace ot::simd
