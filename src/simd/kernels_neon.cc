/**
 * @file
 * NEON kernel table (aarch64 baseline Advanced SIMD).
 */

#include "simd/kernels.hh"

#include "simd/kernels_generic.hh"
#include "simd/vec_neon.hh"

namespace ot::simd {

namespace {

constexpr KernelTable kNeonTable = {
    .fill = fillT<NeonVec>,
    .countNonzero = countNonzeroT<NeonVec>,
    .reduceSum = reduceSumT<NeonVec>,
    .reduceMin = reduceMinT<NeonVec>,
    .accumSum = accumSumT<NeonVec>,
    .accumMin = accumMinT<NeonVec>,
    .accumMinEqIndexRow = accumMinEqIndexRowT<NeonVec>,
    .enumRank = enumRankT<NeonVec>,
    .pickEqIndexAccum = pickEqIndexAccumT<NeonVec>,
    .compexLinear = compexLinearT<NeonVec>,
    .rotateCycles = rotateCyclesT<NeonVec>,
};

} // namespace

const KernelTable &
neonKernels()
{
    return kNeonTable;
}

} // namespace ot::simd
