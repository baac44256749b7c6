/**
 * @file
 * The OTN batch primitives against the per-tree formulations they
 * replace, and the graph and matrix algorithms traced against untraced.
 *
 * A batch primitive moves its data through the kernel table and then
 * replays the accounting: per tree under parallelFor while a recording
 * tracer is attached, and as one counter bump of N and one charge
 * otherwise.  Both must be indistinguishable from the per-tree body —
 * register planes, roots, counters, model time, steps and (traced) the
 * event stream — at 1 and 4 host threads, on the OTN and on the
 * OTC-emulated OTN, whose base steps and tree costs differ.
 *
 * The fused calls, which compute only their outputs and roots, are
 * compared with the unfused compositions on that signature; SORT-OTC,
 * which writes no register plane, with the sort the per-cycle
 * primitives run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hh"
#include "linalg/matrix.hh"
#include "otc/emulated_otn.hh"
#include "otc/network.hh"
#include "otc/sort.hh"
#include "otn/connected_components.hh"
#include "otn/matmul.hh"
#include "otn/mst.hh"
#include "otn/network.hh"
#include "otn/patterns.hh"
#include "otn/shortest_paths.hh"
#include "sim/rng.hh"
#include "trace/export.hh"
#include "trace/tracer.hh"
#include "vlsi/bitmath.hh"

namespace {

using namespace ot;
using otn::Axis;
using otn::OrthogonalTreesNetwork;
using otn::Reg;
using otn::Sel;
using sim::Rng;
using vlsi::CostModel;
using vlsi::DelayModel;
using vlsi::ModelTime;
using vlsi::WordFormat;

using Net = OrthogonalTreesNetwork;

/** An OTN, or the OTC-emulated OTN, of side n on `threads` lanes. */
std::unique_ptr<Net>
makeNet(bool emulated, std::size_t n, WordFormat word, unsigned threads)
{
    CostModel cost(DelayModel::Logarithmic, word);
    if (emulated)
        return std::make_unique<otc::OtcEmulatedOtn>(n, cost, 0, threads);
    return std::make_unique<Net>(n, cost, layout::LayoutParams{}, threads);
}

/** Roots, clock, steps and every counter must match exactly. */
void
expectSameRootsAndAccounting(const Net &a, const Net &b)
{
    ASSERT_EQ(a.n(), b.n());
    EXPECT_EQ(a.now(), b.now()) << "model time diverged";
    EXPECT_EQ(a.acct().steps(), b.acct().steps()) << "steps diverged";
    for (std::size_t i = 0; i < a.n(); ++i) {
        ASSERT_EQ(a.rowRoot(i), b.rowRoot(i)) << "rowRoot " << i;
        ASSERT_EQ(a.colRoot(i), b.colRoot(i)) << "colRoot " << i;
    }
    const auto &ca = a.stats().counters();
    const auto &cb = b.stats().counters();
    ASSERT_EQ(ca.size(), cb.size()) << "counter sets diverged";
    for (const auto &[name, c] : ca) {
        auto it = cb.find(name);
        ASSERT_NE(it, cb.end()) << "counter " << name << " missing";
        EXPECT_EQ(c.value(), it->second.value()) << "counter " << name;
    }
}

/** ...and every register plane too. */
void
expectSameState(const Net &a, const Net &b)
{
    expectSameRootsAndAccounting(a, b);
    const std::size_t plane = a.n() * a.n();
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        ASSERT_EQ(std::memcmp(a.regPlane(static_cast<Reg>(r)),
                              b.regPlane(static_cast<Reg>(r)),
                              plane * sizeof(std::uint64_t)),
                  0)
            << "register plane " << r << " diverged";
}

/** The two event streams must be identical event for event. */
void
expectSameTrace(const trace::Tracer &a, const trace::Tracer &b)
{
    ASSERT_EQ(a.events().size(), b.events().size())
        << "trace lengths diverged";
    for (std::size_t i = 0; i < a.events().size(); ++i)
        ASSERT_TRUE(trace::eventsEqual(a.events()[i], b.events()[i]))
            << "trace event " << i << " diverged";
    EXPECT_EQ(trace::toChromeTraceJson(a), trace::toChromeTraceJson(b));
}

// ----------------------------------------------------------------------
// Batch primitive vs per-tree parallelFor body
// ----------------------------------------------------------------------

/**
 * Random words in every register and root, with kNull holes, plus a
 * key register B: B(i, j) == j for some leaves of most columns, but
 * for no leaf of column n - 1 (its key MIN must leave kNull at the
 * root).
 */
void
seedRegisters(Net &net, std::uint64_t seed)
{
    const std::size_t n = net.n();
    Rng rng(seed);
    auto word = [&] {
        return rng.uniform(0, 7) == 0 ? otn::kNull : rng.uniform(0, 4 * n);
    };
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                net.reg(static_cast<Reg>(r), i, j) = word();
    std::vector<std::uint64_t> inputs(n);
    for (auto &w : inputs)
        w = word();
    net.setRowRootInputs(inputs);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t k = rng.uniform(0, 2) == 0 ? j : rng.uniform(0, n);
            if (j == n - 1 && k == j)
                k = 0;
            net.reg(Reg::B, i, j) = k;
        }
    }
}

using Step = ModelTime (*)(Net &);

struct PrimCase
{
    const char *name;
    Step batch;
    Step perTree;
};

template <typename Body>
ModelTime
pardo(Net &net, Body body)
{
    return net.parallelFor(net.n(), body);
}

const PrimCase kPrimCases[] = {
    {"RowBroadcast",
     [](Net &net) { return net.batchRowBroadcast(Reg::A); },
     [](Net &net) {
         return pardo(net, [&](std::size_t i) {
             net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
         });
     }},
    {"DiagToRows",
     [](Net &net) { return net.batchDiagToRows(Reg::D, Reg::X); },
     [](Net &net) {
         return pardo(net, [&](std::size_t i) {
             net.leafToLeaf(Axis::Row, i, Sel::diag(), Reg::D, Sel::all(),
                            Reg::X);
         });
     }},
    {"DiagToCols",
     [](Net &net) { return net.batchDiagToCols(Reg::D, Reg::X); },
     [](Net &net) {
         return pardo(net, [&](std::size_t j) {
             net.leafToLeaf(Axis::Col, j, Sel::diag(), Reg::D, Sel::all(),
                            Reg::X);
         });
     }},
    {"MinRowsToLeaves",
     [](Net &net) { return net.batchMinRowsToLeaves(Reg::T, Reg::E); },
     [](Net &net) {
         return pardo(net, [&](std::size_t i) {
             net.minLeafToRoot(Axis::Row, i, Sel::all(), Reg::T);
             net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::E);
         });
     }},
    {"MinColsToRoots",
     [](Net &net) { return net.batchMinColsToRoots(Reg::C); },
     [](Net &net) {
         return pardo(net, [&](std::size_t j) {
             net.minLeafToRoot(Axis::Col, j, Sel::all(), Reg::C);
         });
     }},
    {"MinColsByKeyToLeaves",
     [](Net &net) {
         return net.batchMinColsByKeyToLeaves(Reg::B, Reg::E, Reg::H);
     },
     [](Net &net) {
         return pardo(net, [&](std::size_t j) {
             net.minLeafToRoot(Axis::Col, j, Sel::regEq(Reg::B, j), Reg::E);
             net.rootToLeaf(Axis::Col, j, Sel::all(), Reg::H);
         });
     }},
    {"MinColsByKeyToDiag",
     [](Net &net) {
         return net.batchMinColsByKeyToDiag(Reg::B, Reg::E, Reg::H);
     },
     [](Net &net) {
         return pardo(net, [&](std::size_t j) {
             net.minLeafToRoot(Axis::Col, j, Sel::regEq(Reg::B, j), Reg::E);
             net.rootToLeaf(Axis::Col, j, Sel::diag(), Reg::H);
         });
     }},
    {"BaseOpDiag",
     [](Net &net) {
         return net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
             net.reg(Reg::G, i, i) = net.reg(Reg::H, i, i) ^ 5;
         });
     },
     [](Net &net) {
         return net.baseOp(net.cost().bitSerialOp(),
                           [&](std::size_t i, std::size_t j) {
                               if (i == j)
                                   net.reg(Reg::G, i, j) =
                                       net.reg(Reg::H, i, j) ^ 5;
                           });
     }},
};

struct ReplayCase
{
    std::size_t n;
    unsigned threads;
    bool emulated;
};

class BatchReplay : public ::testing::TestWithParam<ReplayCase>
{
};

TEST_P(BatchReplay, EveryPrimitiveMatchesItsPerTreeBody)
{
    const auto [n, threads, emulated] = GetParam();
    const WordFormat word = WordFormat::forProblemSize(n);
    for (const PrimCase &pc : kPrimCases) {
        for (bool traced : {false, true}) {
            SCOPED_TRACE(std::string(pc.name) +
                         (traced ? " traced" : " untraced"));
            trace::Tracer tb, tp;
            auto batch = makeNet(emulated, n, word, threads);
            auto per_tree = makeNet(emulated, n, word, threads);
            seedRegisters(*batch, 7 + n);
            seedRegisters(*per_tree, 7 + n);
            if (traced) {
                tb.setEnabled(true);
                tp.setEnabled(true);
                batch->setTracer(&tb);
                per_tree->setTracer(&tp);
            }
            // Two calls, so the second starts on a running clock.
            for (int rep = 0; rep < 2; ++rep)
                EXPECT_EQ(pc.batch(*batch), pc.perTree(*per_tree));
            expectSameState(*batch, *per_tree);
            expectSameTrace(tb, tp);
            EXPECT_EQ(tb.events().empty(), !traced);
        }
    }
}

TEST_P(BatchReplay, KeyMatchingNoLeafLeavesNullAtTheRoot)
{
    const auto [n, threads, emulated] = GetParam();
    auto net = makeNet(emulated, n, WordFormat::forProblemSize(n), threads);
    seedRegisters(*net, 11 + n);
    net->batchMinColsByKeyToLeaves(Reg::B, Reg::E, Reg::H);
    EXPECT_EQ(net->colRoot(n - 1), otn::kNull);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(net->reg(Reg::H, i, n - 1), otn::kNull) << "row " << i;
    for (std::size_t j = 0; j < n; ++j) {
        std::uint64_t want = otn::kNull;
        for (std::size_t i = 0; i < n; ++i)
            if (net->reg(Reg::B, i, j) == j)
                want = std::min(want, net->reg(Reg::E, i, j));
        EXPECT_EQ(net->colRoot(j), want) << "column " << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchReplay,
    ::testing::Values(ReplayCase{8, 1, false}, ReplayCase{8, 4, false},
                      ReplayCase{32, 1, false}, ReplayCase{32, 4, false},
                      ReplayCase{16, 1, true}, ReplayCase{16, 4, true}),
    [](const ::testing::TestParamInfo<ReplayCase> &info) {
        return (info.param.emulated ? std::string("emu") : "otn") + "n" +
               std::to_string(info.param.n) + "t" +
               std::to_string(info.param.threads);
    });

// ----------------------------------------------------------------------
// Fused batch calls vs the unfused compositions they replace
// ----------------------------------------------------------------------
//
// A fused call computes only its outputs, so the comparison covers its
// signature (outputs, roots) and all of the accounting, not the
// scratch planes the composition writes on the way (X, R, F, A, C
// below; the fused calls never take them as arguments).

/** Select at BP(i, key(i)), then the row minima to the diagonal. */
ModelTime
unfusedGatherAtIndex(Net &net, Reg key_by_row, Reg val_by_col, Reg out)
{
    const ModelTime op = net.cost().bitSerialOp();
    ModelTime dt = net.baseOp(op, [&](std::size_t i, std::size_t j) {
        const bool hit = net.reg(key_by_row, i, j) == j;
        net.reg(Reg::F, i, j) = hit ? net.reg(val_by_col, i, j) : otn::kNull;
    });
    dt += pardo(net, [&](std::size_t i) {
        net.minLeafToRoot(Axis::Row, i, Sel::all(), Reg::F);
        net.rootToLeaf(Axis::Row, i, Sel::diag(), out);
    });
    return dt;
}

/** Fan key along the rows and val down the columns, then gather. */
ModelTime
unfusedGatherDiag(Net &net, Reg key, Reg val, Reg out)
{
    ModelTime dt = pardo(net, [&](std::size_t i) {
        net.leafToLeaf(Axis::Row, i, Sel::diag(), key, Sel::all(), Reg::X);
    });
    dt += pardo(net, [&](std::size_t j) {
        net.leafToLeaf(Axis::Col, j, Sel::diag(), val, Sel::all(), Reg::R);
    });
    return dt + unfusedGatherAtIndex(net, Reg::X, Reg::R, out);
}

/** Row broadcast, pointwise product, column sums. */
ModelTime
unfusedVecMat(Net &net, Reg mat, ModelTime mul_cost, bool boolean)
{
    ModelTime dt = pardo(net, [&](std::size_t i) {
        net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
    });
    dt += net.baseOp(mul_cost, [&](std::size_t i, std::size_t j) {
        const std::uint64_t a = net.reg(Reg::A, i, j);
        const std::uint64_t b = net.reg(mat, i, j);
        std::uint64_t prod = 0;
        if (a != otn::kNull && b != otn::kNull)
            prod = boolean ? (a && b ? 1 : 0) : a * b;
        net.reg(Reg::C, i, j) = prod;
    });
    dt += pardo(net, [&](std::size_t j) {
        net.sumLeafToRoot(Axis::Col, j, Sel::all(), Reg::C);
    });
    return dt;
}

/**
 * SORT-OTN's steps 1-4 on the per-tree primitives: A fanned along the
 * rows, B down the columns, the rank flags, and the flag counts to the
 * row roots and leaves.
 */
ModelTime
unfusedRank(Net &net)
{
    ModelTime dt = pardo(net, [&](std::size_t i) {
        net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
    });
    dt += pardo(net, [&](std::size_t j) {
        net.leafToLeaf(Axis::Col, j, Sel::diag(), Reg::A, Sel::all(), Reg::B);
    });
    dt += net.baseOp(net.cost().bitSerialOp(),
                     [&](std::size_t i, std::size_t j) {
                         const std::uint64_t a = net.reg(Reg::A, i, j);
                         const std::uint64_t b = net.reg(Reg::B, i, j);
                         net.reg(Reg::F, i, j) =
                             a > b || (a == b && i > j) ? 1 : 0;
                     });
    dt += pardo(net, [&](std::size_t i) {
        net.countLeafToLeaf(Axis::Row, i, Reg::F, Sel::all(), Reg::R);
    });
    return dt;
}

/** SORT-OTN's step 5: column root j takes the A word of rank j. */
ModelTime
unfusedPickByRank(Net &net)
{
    return pardo(net, [&](std::size_t j) {
        net.leafToRoot(Axis::Col, j, Sel::regEq(Reg::R, j), Reg::A);
    });
}

/**
 * Vertex keys on the diagonal of `key`: in range, kNull and out of
 * range (N + i) in turn.
 */
void
seedDiagKeys(Net &net, Reg key, std::uint64_t seed)
{
    const std::size_t n = net.n();
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t k = rng.uniform(0, n - 1);
        if (i % 3 == 1)
            k = otn::kNull;
        else if (i % 3 == 2)
            k = n + i;
        net.reg(key, i, i) = k;
    }
}

/** The two nets' diagonals of register r must match. */
void
expectSameDiag(const Net &a, const Net &b, Reg r)
{
    for (std::size_t i = 0; i < a.n(); ++i)
        ASSERT_EQ(a.reg(r, i, i), b.reg(r, i, i)) << "diagonal " << i;
}

class FusedReplay : public ::testing::TestWithParam<ReplayCase>
{
  protected:
    /**
     * Run `fused` on one fresh machine and `unfused` on another, both
     * seeded alike by `prepare`, untraced and traced, twice each (the
     * second call starts on a running clock); then compare the diagonal
     * of `out`, the roots, the accounting and the event streams.
     */
    template <typename Prepare, typename Fused, typename Unfused>
    void
    compare(Prepare prepare, Fused fused, Unfused unfused, Reg out)
    {
        const auto [n, threads, emulated] = GetParam();
        // Wide enough for seedRegisters' words up to 4n.
        const WordFormat word(vlsi::logCeilAtLeast1(4 * n + 1) + 1);
        for (bool traced : {false, true}) {
            SCOPED_TRACE(traced ? "traced" : "untraced");
            trace::Tracer tf, tu;
            auto f = makeNet(emulated, n, word, threads);
            auto u = makeNet(emulated, n, word, threads);
            prepare(*f);
            prepare(*u);
            if (traced) {
                tf.setEnabled(true);
                tu.setEnabled(true);
                f->setTracer(&tf);
                u->setTracer(&tu);
            }
            for (int rep = 0; rep < 2; ++rep)
                EXPECT_EQ(fused(*f), unfused(*u));
            expectSameDiag(*f, *u, out);
            expectSameRootsAndAccounting(*f, *u);
            expectSameTrace(tf, tu);
            EXPECT_EQ(tf.events().empty(), !traced);
        }
    }
};

TEST_P(FusedReplay, GatherDiagMatchesUnfusedComposition)
{
    const std::size_t n = GetParam().n;
    struct Alias
    {
        Reg key, val, out;
    };
    // Distinct registers, out aliasing key or val, and all three equal.
    const Alias aliases[] = {{Reg::D, Reg::E, Reg::Y},
                             {Reg::D, Reg::D, Reg::Y},
                             {Reg::D, Reg::E, Reg::D},
                             {Reg::D, Reg::E, Reg::E},
                             {Reg::D, Reg::D, Reg::D}};
    for (const Alias &al : aliases) {
        SCOPED_TRACE("key " + std::to_string(unsigned(al.key)) + " val " +
                     std::to_string(unsigned(al.val)) + " out " +
                     std::to_string(unsigned(al.out)));
        compare(
            [&](Net &net) {
                seedRegisters(net, 41 + n);
                seedDiagKeys(net, al.key, 43 + n);
            },
            [&](Net &net) {
                return net.batchGatherDiag(al.key, al.val, al.out);
            },
            [&](Net &net) {
                return unfusedGatherDiag(net, al.key, al.val, al.out);
            },
            al.out);
    }
}

TEST_P(FusedReplay, GatherAtIndexMatchesUnfusedComposition)
{
    const std::size_t n = GetParam().n;
    compare(
        [&](Net &net) {
            // The key fanned along the rows, as the pattern requires.
            seedRegisters(net, 47 + n);
            seedDiagKeys(net, Reg::D, 53 + n);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    net.reg(Reg::B, i, j) = net.reg(Reg::D, i, i);
        },
        [](Net &net) {
            return net.batchGatherAtIndex(Reg::B, Reg::E, Reg::Y);
        },
        [](Net &net) {
            return unfusedGatherAtIndex(net, Reg::B, Reg::E, Reg::Y);
        },
        Reg::Y);
}

TEST_P(FusedReplay, VecMatMatchesPerTreeBody)
{
    const std::size_t n = GetParam().n;
    for (bool boolean : {false, true}) {
        SCOPED_TRACE(boolean ? "boolean" : "integer");
        auto mul_cost = [&](const Net &net) {
            return boolean ? ModelTime{1} : net.cost().bitSerialMultiply();
        };
        compare(
            [&](Net &net) {
                // Row inputs with kNull (from the seed) and 0 holes.
                seedRegisters(net, 59 + n);
                for (std::size_t i = 2; i < n; i += 4)
                    net.rowRoot(i) = 0;
            },
            [&](Net &net) {
                return net.batchVecMat(Reg::E, mul_cost(net), boolean);
            },
            [&](Net &net) {
                return unfusedVecMat(net, Reg::E, mul_cost(net), boolean);
            },
            Reg::Y);
    }
}

TEST_P(FusedReplay, RankAndPickMatchUnfusedComposition)
{
    const auto [n, threads, emulated] = GetParam();
    // About three quarters of the ports loaded (the one port for n = 1),
    // from few distinct words so ties are common, one of them kNull; the
    // rest are kNull pads.
    Rng rng(61 + n);
    std::vector<std::uint64_t> values(
        std::max<std::size_t>(1, n - std::max<std::size_t>(1, n / 4)));
    for (auto &v : values)
        v = rng.uniform(0, 3);
    if (values.size() > 2)
        values[1] = otn::kNull;
    std::vector<std::uint64_t> want = values;
    std::sort(want.begin(), want.end());

    const WordFormat word = WordFormat::forProblemSize(n);
    for (bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "traced" : "untraced");
        trace::Tracer tf, tu;
        auto f = makeNet(emulated, n, word, threads);
        auto u = makeNet(emulated, n, word, threads);
        if (traced) {
            tf.setEnabled(true);
            tu.setEnabled(true);
            f->setTracer(&tf);
            u->setTracer(&tu);
        }
        // Twice, so the second run starts on a running clock.
        for (int rep = 0; rep < 2; ++rep) {
            f->setRowRootInputs(values);
            u->setRowRootInputs(values);
            EXPECT_EQ(f->batchRank(), unfusedRank(*u));
            expectSameRootsAndAccounting(*f, *u);
            EXPECT_EQ(f->batchPickColByRank(), unfusedPickByRank(*u));
            expectSameRootsAndAccounting(*f, *u);
            for (std::size_t i = 0; i < values.size(); ++i)
                ASSERT_EQ(f->colRoot(i), want[i]) << "sorted " << i;
        }
        expectSameTrace(tf, tu);
        EXPECT_EQ(tf.events().empty(), !traced);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedReplay,
    ::testing::Values(ReplayCase{1, 1, false}, ReplayCase{1, 4, false},
                      ReplayCase{2, 1, false}, ReplayCase{2, 4, false},
                      ReplayCase{8, 1, false}, ReplayCase{8, 4, false},
                      ReplayCase{64, 1, false}, ReplayCase{64, 4, false},
                      ReplayCase{16, 1, true}, ReplayCase{16, 4, true}),
    [](const ::testing::TestParamInfo<ReplayCase> &info) {
        return (info.param.emulated ? std::string("emu") : "otn") + "n" +
               std::to_string(info.param.n) + "t" +
               std::to_string(info.param.threads);
    });

// ----------------------------------------------------------------------
// SORT-OTC vs its per-cycle composition
// ----------------------------------------------------------------------

/**
 * SORT-OTC on the data-moving OTC primitives, step by step as the
 * machine runs it: ROOTTOCYCLE, CYCLETOCYCLE, the C := 0 sweep and L
 * compare-and-circulate rounds, SUM-CYCLETOCYCLE, and the column
 * output in which port j emits rank p*K + j at beat p.
 */
std::vector<std::uint64_t>
perCycleSortOtc(otc::OtcNetwork &net, const std::vector<std::uint64_t> &values)
{
    using otc::CSel;
    const std::size_t k = net.k();
    const unsigned l = net.cycleLen();
    sim::ScopedPhase phase(net.acct(), "sort-otc");
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t q = 0; q < l; ++q) {
            const std::size_t g = i * l + q;
            net.rowStream(i)[q] = g < values.size() ? values[g] : otn::kNull;
        }
    net.parallelFor(k, [&](std::size_t i) {
        net.rootToCycle(otc::Axis::Row, i, CSel::all(), Reg::A);
    });
    net.parallelFor(k, [&](std::size_t i) {
        net.cycleToCycle(otc::Axis::Col, i, CSel::rowIs(i), Reg::A,
                         CSel::all(), Reg::B);
    });
    const ModelTime op = net.cost().bitSerialOp();
    net.baseOp(op, [&](std::size_t i, std::size_t j, std::size_t q) {
        net.reg(Reg::C, i, j, q) = 0;
    });
    for (unsigned p = 0; p < l; ++p) {
        // After p circulations B(q) of cycle (i, j) holds element
        // (q + p) mod L of group j.
        net.baseOp(op, [&](std::size_t i, std::size_t j, std::size_t q) {
            const std::uint64_t a = net.reg(Reg::A, i, j, q);
            const std::uint64_t b = net.reg(Reg::B, i, j, q);
            const std::size_t ga = i * l + q;
            const std::size_t gb = j * l + (q + p) % l;
            if (a > b || (a == b && ga > gb))
                ++net.reg(Reg::C, i, j, q);
        });
        net.parallelFor(k, [&](std::size_t i) {
            net.vectorCirculate(otc::Axis::Row, i, {Reg::B});
        });
    }
    net.parallelFor(k, [&](std::size_t i) {
        net.sumCycleToCycle(otc::Axis::Row, i, CSel::all(), Reg::C,
                            CSel::all(), Reg::R);
    });
    net.parallelFor(k, [&](std::size_t j) {
        for (std::size_t i = 0; i < k; ++i)
            for (std::size_t q = 0; q < l; ++q) {
                const std::uint64_t r = net.reg(Reg::R, i, j, q);
                if (r % k == j)
                    net.colStream(j)[r / k] = net.reg(Reg::A, i, j, q);
            }
        net.charge(net.streamCost() + (l - 1) * net.circulateCost());
    });
    std::vector<std::uint64_t> sorted(values.size());
    for (std::size_t g = 0; g < values.size(); ++g)
        sorted[g] = net.colStream(g % k)[g / k];
    return sorted;
}

TEST(OtcFusedReplay, SortMatchesPerCycleComposition)
{
    struct Shape
    {
        const char *name;
        std::size_t k;
        unsigned l;
        std::size_t count; // values fed; the rest of K*L are kNull pads
        std::uint64_t hi;  // values drawn from [0, hi]
    };
    const Shape shapes[] = {{"full_k4_l4", 4, 4, 16, 15},
                            {"pads_k16_l6", 16, 6, 64, 9},
                            {"all_equal_k8_l5", 8, 5, 40, 0}};
    for (const Shape &sh : shapes) {
        Rng rng(67 + sh.k);
        std::vector<std::uint64_t> values(sh.count);
        for (auto &v : values)
            v = rng.uniform(0, sh.hi);
        std::vector<std::uint64_t> want = values;
        std::sort(want.begin(), want.end());
        const CostModel cost(DelayModel::Logarithmic,
                             WordFormat::forProblemSize(sh.k * sh.l));
        for (unsigned threads : {1u, 4u}) {
            for (bool traced : {false, true}) {
                SCOPED_TRACE(std::string(sh.name) + " threads " +
                             std::to_string(threads) +
                             (traced ? " traced" : " untraced"));
                trace::Tracer tf, tu;
                otc::OtcNetwork f(sh.k, sh.l, cost, threads);
                otc::OtcNetwork u(sh.k, sh.l, cost, threads);
                if (traced) {
                    tf.setEnabled(true);
                    tu.setEnabled(true);
                    f.setTracer(&tf);
                    u.setTracer(&tu);
                }
                for (int rep = 0; rep < 2; ++rep) {
                    const auto r = otc::sortOtc(f, values);
                    EXPECT_EQ(r.sorted, want);
                    EXPECT_EQ(perCycleSortOtc(u, values), want);
                }
                EXPECT_EQ(f.now(), u.now());
                EXPECT_EQ(f.acct().steps(), u.acct().steps());
                for (std::size_t j = 0; j < sh.k; ++j)
                    ASSERT_EQ(f.colStream(j), u.colStream(j)) << "port " << j;
                // Both sides charge through the same accounting
                // replays, so also check the counters against the step
                // structure itself, per run: steps 1, 2 and 4 are one
                // pardo over the K trees, step 3 is L + 1 base steps
                // and L pardos of the K row VECTORCIRCULATEs.
                const std::uint64_t k = sh.k, l = sh.l, runs = 2;
                const std::map<std::string, std::uint64_t> steps = {
                    {"otc.baseOp", l + 1},
                    {"otc.circulate", l * k * k},
                    {"otc.cycleToCycle", k},
                    {"otc.cycleToRoot", k},
                    {"otc.rootToCycle", 3 * k},
                    {"otc.sumCycleToCycle", k},
                    {"otc.sumCycleToRoot", k},
                    {"otc.vectorCirculate", l * k},
                };
                const auto &cf = f.stats().counters();
                const auto &cu = u.stats().counters();
                ASSERT_EQ(cf.size(), steps.size()) << "counter set";
                ASSERT_EQ(cu.size(), steps.size()) << "counter set";
                for (const auto &[name, per_run] : steps) {
                    ASSERT_TRUE(cf.count(name) && cu.count(name)) << name;
                    EXPECT_EQ(cf.at(name).value(), runs * per_run) << name;
                    EXPECT_EQ(cu.at(name).value(), runs * per_run) << name;
                }
                expectSameTrace(tf, tu);
                EXPECT_EQ(tf.events().empty(), !traced);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Whole algorithms: a recording tracer changes nothing but the trace
// ----------------------------------------------------------------------

enum class Algo { Cc, Mst, Sssp, MatMul, BoolMm };

/** Run `algo` on a fresh machine; returns a comparable output digest. */
std::string
runAlgo(Algo algo, Net &net, std::uint64_t seed)
{
    const std::size_t n = net.n();
    Rng rng(seed);
    std::string out;
    auto append = [&](std::uint64_t v) {
        out += std::to_string(v);
        out += ',';
    };
    switch (algo) {
      case Algo::Cc: {
        auto r = otn::connectedComponentsOtn(net,
                                             graph::randomGnp(n, 0.1, rng));
        for (std::size_t l : r.labels)
            append(l);
        append(r.componentCount);
        append(r.time);
        break;
      }
      case Algo::Mst: {
        auto r =
            otn::mstOtn(net, graph::randomWeightedConnected(n, 2 * n, rng));
        for (const graph::Edge &e : r.edges) {
            append(e.u);
            append(e.v);
            append(e.w);
        }
        append(r.time);
        break;
      }
      case Algo::Sssp: {
        auto g = graph::randomWeightedConnected(n, 2 * n, rng);
        auto r = otn::ssspOtn(net, g, rng.uniform(0, n - 1));
        for (std::uint64_t d : r.dist)
            append(d);
        append(r.rounds);
        append(r.time);
        break;
      }
      case Algo::MatMul:
      case Algo::BoolMm: {
        linalg::IntMatrix a(n, n), b(n, n);
        linalg::BoolMatrix ba(n, n, 0), bb(n, n, 0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = rng.uniform(0, 9);
                b(i, j) = rng.uniform(0, 9);
                ba(i, j) = rng.bernoulli(0.35) ? 1 : 0;
                bb(i, j) = rng.bernoulli(0.35) ? 1 : 0;
            }
        auto r = algo == Algo::MatMul
                     ? otn::matMulPipelined(net, a, b)
                     : otn::boolMatMulPipelined(net, ba, bb);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                append(r.product(i, j));
        append(r.time);
        append(r.firstRowLatency);
        break;
      }
    }
    return out;
}

WordFormat
wordFor(Algo algo, std::size_t n)
{
    switch (algo) {
      case Algo::MatMul:
        return WordFormat(vlsi::logCeilAtLeast1(n * 81 + 1) + 2);
      case Algo::Mst:
        return otn::mstWordFormat(n, n * n);
      case Algo::Sssp:
        return otn::pathWordFormat(n, n * n);
      case Algo::Cc:
      case Algo::BoolMm:
        break;
    }
    return WordFormat::forProblemSize(n);
}

struct AlgoCase
{
    Algo algo;
    const char *name;
};

class TracedUntraced
    : public ::testing::TestWithParam<std::tuple<AlgoCase, bool, unsigned>>
{
};

TEST_P(TracedUntraced, SameOutputsClockCountersAndPlanes)
{
    const auto [ac, emulated, threads] = GetParam();
    const std::size_t n = 16;
    const WordFormat word = wordFor(ac.algo, n);

    auto plain = makeNet(emulated, n, word, threads);
    const std::string want = runAlgo(ac.algo, *plain, 29);

    trace::Tracer tr;
    tr.setEnabled(true);
    auto traced = makeNet(emulated, n, word, threads);
    traced->setTracer(&tr);
    EXPECT_EQ(runAlgo(ac.algo, *traced, 29), want);
    EXPECT_GT(tr.events().size(), 0u);
    expectSameState(*plain, *traced);
}

const AlgoCase kAlgoCases[] = {
    {Algo::Cc, "cc"},         {Algo::Mst, "mst"},
    {Algo::Sssp, "sssp"},     {Algo::MatMul, "matmul"},
    {Algo::BoolMm, "boolmm"},
};

INSTANTIATE_TEST_SUITE_P(
    Algorithms, TracedUntraced,
    ::testing::Combine(::testing::ValuesIn(kAlgoCases),
                       ::testing::Bool(), ::testing::Values(1u, 4u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) +
               (std::get<1>(info.param) ? "_emu" : "_otn") + "_t" +
               std::to_string(std::get<2>(info.param));
    });

} // namespace
