/**
 * @file
 * The session registry must trade only *warmth*, never correctness:
 * a capacity-1 registry that evicted a session re-answers its
 * requests bit-identically to cold runs; dims-identical networks
 * share a session regardless of name; and the shared FrontierRowStore
 * lets SqueezeNet variants reuse each other's frontier rows while
 * still producing designs bit-identical to private-table runs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/dse_request.h"
#include "core/dse_session.h"
#include "core/frontier_cache.h"
#include "core/optimizer.h"
#include "core/session_registry.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/logging.h"

namespace mclp {
namespace {

core::OptimizationResult
coldRun(const nn::Network &network, fpga::DataType type,
        const fpga::ResourceBudget &budget)
{
    return core::MultiClpOptimizer(network, type, budget, {}).run();
}

void
expectSameResult(const core::OptimizationResult &warm,
                 const core::OptimizationResult &cold,
                 const std::string &what)
{
    EXPECT_TRUE(warm.design == cold.design) << what << ": designs differ";
    EXPECT_EQ(warm.metrics.epochCycles, cold.metrics.epochCycles)
        << what;
}

TEST(SessionRegistry, CapacityOneEvictsAndReanswersCorrectly)
{
    core::SessionRegistry registry(1);
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network squeezenet = nn::makeSqueezeNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({1000}, 100.0);

    auto first = registry.session(alexnet, "690t",
                                  fpga::DataType::Float32)
                     ->sweep(budgets, {});
    // A second network in a capacity-1 registry evicts the first.
    auto other = registry.session(squeezenet, "690t",
                                  fpga::DataType::Float32)
                     ->sweep(budgets, {});
    EXPECT_EQ(registry.stats().evictions, 1u);
    EXPECT_EQ(registry.stats().sessions, 1u);

    // Re-acquiring the evicted key builds a fresh session whose
    // answers are bit-identical to both the pre-eviction ones and a
    // cold run.
    auto again = registry.session(alexnet, "690t",
                                  fpga::DataType::Float32)
                     ->sweep(budgets, {});
    EXPECT_EQ(registry.stats().evictions, 2u);
    expectSameResult(again[0], first[0], "pre vs post eviction");
    expectSameResult(again[0],
                     coldRun(alexnet, fpga::DataType::Float32,
                             budgets[0]),
                     "post-eviction vs cold");
    expectSameResult(other[0],
                     coldRun(squeezenet, fpga::DataType::Float32,
                             budgets[0]),
                     "evictor vs cold");
}

TEST(SessionRegistry, EvictedSessionHandleStaysUsable)
{
    core::SessionRegistry registry(1);
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network squeezenet = nn::makeSqueezeNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({800}, 100.0);

    // Hold the handle across the eviction: the aliasing shared_ptr
    // pins the entry (and the network it references).
    auto held = registry.session(alexnet, "690t",
                                 fpga::DataType::Float32);
    registry.session(squeezenet, "690t", fpga::DataType::Float32);
    ASSERT_EQ(registry.stats().evictions, 1u);
    auto result = held->sweep(budgets, {});
    expectSameResult(result[0],
                     coldRun(alexnet, fpga::DataType::Float32,
                             budgets[0]),
                     "evicted-but-held session");
}

TEST(SessionRegistry, DimsSignatureSharesSessionsAcrossNames)
{
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network renamed("TotallyDifferentName", alexnet.layers());
    EXPECT_EQ(core::networkSignature(alexnet),
              core::networkSignature(renamed));

    core::SessionRegistry registry(4);
    registry.session(alexnet, "690t", fpga::DataType::Float32);
    registry.session(renamed, "690t", fpga::DataType::Float32);
    EXPECT_EQ(registry.stats().misses, 1u);
    EXPECT_EQ(registry.stats().hits, 1u);

    // Any dims change, another device, or another type separates.
    nn::Network tweaked = alexnet;
    tweaked.addLayer(test::layer(16, 16, 7, 7, 3, 1, "extra"));
    EXPECT_NE(core::networkSignature(alexnet),
              core::networkSignature(tweaked));
    registry.session(alexnet, "485t", fpga::DataType::Float32);
    registry.session(alexnet, "690t", fpga::DataType::Fixed16);
    EXPECT_EQ(registry.stats().misses, 3u);
}

TEST(SessionRegistry, ByteBudgetTriggersEviction)
{
    // A tiny byte budget cannot hold two warm sessions.
    core::SessionRegistry registry(8, 64 * 1024);
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network squeezenet = nn::makeSqueezeNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({1500}, 100.0);

    registry.session(alexnet, "690t", fpga::DataType::Float32)
        ->sweep(budgets, {});
    registry.session(squeezenet, "690t", fpga::DataType::Float32)
        ->sweep(budgets, {});
    // Warm both, then re-trigger enforcement via another acquisition.
    auto session = registry.session(squeezenet, "690t",
                                    fpga::DataType::Float32);
    core::SessionRegistry::Stats stats = registry.stats();
    EXPECT_GE(stats.evictions, 1u) << "bytes=" << stats.bytes;
    EXPECT_LE(stats.sessions, 2u);
    // The surviving session still answers correctly.
    auto result = session->sweep(budgets, {});
    expectSameResult(result[0],
                     coldRun(squeezenet, fpga::DataType::Float32,
                             budgets[0]),
                     "post byte-cap eviction");
}

TEST(SessionRegistry, AdmissionEstimateScalesWithLayersAndBudget)
{
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network googlenet = nn::makeGoogLeNet();
    size_t small = core::SessionRegistry::estimateSessionBytes(
        alexnet, fpga::DataType::Float32, 500);
    size_t big = core::SessionRegistry::estimateSessionBytes(
        alexnet, fpga::DataType::Float32, 5000);
    size_t wide = core::SessionRegistry::estimateSessionBytes(
        googlenet, fpga::DataType::Float32, 500);
    EXPECT_GT(small, 0u);
    EXPECT_GT(big, small) << "more DSP => bigger staircases";
    EXPECT_GT(wide, small) << "more layers => more rows";
    // No budget hint means no estimate (admission is then post-hoc
    // only, the pre-PR behaviour).
    EXPECT_EQ(core::SessionRegistry::estimateSessionBytes(
                  googlenet, fpga::DataType::Float32, 0),
              0u);
}

TEST(SessionRegistry, AdmissionEvictsBeforeBuildingAndRejectsGiants)
{
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network googlenet = nn::makeGoogLeNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({800}, 100.0);

    // Budget sized so the resident AlexNet session plus GoogLeNet's
    // estimate cannot coexist, but either alone fits: admission must
    // evict AlexNet *before* building GoogLeNet instead of letting
    // the pair transiently blow the cap.
    size_t google_est = core::SessionRegistry::estimateSessionBytes(
        googlenet, fpga::DataType::Float32, 800);
    core::SessionRegistry registry(8, google_est + 96 * 1024, 1);
    registry.session(alexnet, "690t", fpga::DataType::Float32, 800)
        ->sweep(budgets, {});
    ASSERT_EQ(registry.stats().evictions, 0u);

    auto session = registry.session(googlenet, "690t",
                                    fpga::DataType::Float32, 800);
    core::SessionRegistry::Stats stats = registry.stats();
    EXPECT_GE(stats.evictions, 1u)
        << "bytes=" << stats.bytes << " est=" << google_est;
    // The admitted session answers bit-identically to a cold run.
    auto warm = session->sweep(budgets, {});
    expectSameResult(warm[0],
                     coldRun(googlenet, fpga::DataType::Float32,
                             budgets[0]),
                     "admitted-after-eviction session");

    // A single network whose estimate exceeds the *whole* byte budget
    // can never be held: reject it as a user error up front (the
    // service turns this into an err line), rather than building a
    // session the cap cannot hold.
    core::SessionRegistry tiny(8, 4 * 1024, 1);
    EXPECT_THROW(tiny.session(googlenet, "690t",
                              fpga::DataType::Float32, 2880),
                 util::FatalError);
    // The codec accepts budgets up to INT64_MAX; the estimate must
    // saturate instead of wrapping past the check (a wrapped product
    // would admit exactly the request admission control exists for).
    EXPECT_EQ(core::SessionRegistry::estimateSessionBytes(
                  alexnet, fpga::DataType::Float32,
                  std::numeric_limits<int64_t>::max()),
              std::numeric_limits<size_t>::max());
    EXPECT_THROW(tiny.session(alexnet, "690t",
                              fpga::DataType::Float32,
                              std::numeric_limits<int64_t>::max()),
                 util::FatalError);
    // Warmth must not bypass admission: the GoogLeNet session is
    // resident in `registry` (admitted at 800 DSP above), but
    // re-acquiring it with an over-budget ladder hint is rejected all
    // the same — answers never depend on whether the session happens
    // to be resident.
    EXPECT_THROW(registry.session(googlenet, "690t",
                                  fpga::DataType::Float32,
                                  std::numeric_limits<int64_t>::max()),
                 util::FatalError);
    // Without a hint (or without a byte budget) nothing is rejected.
    core::SessionRegistry unlimited(8, 0, 1);
    EXPECT_NO_THROW(unlimited.session(
        googlenet, "690t", fpga::DataType::Float32, 2880));
    EXPECT_NO_THROW(
        tiny.session(alexnet, "690t", fpga::DataType::Float32));
}

/** Two SqueezeNet variants: v1.1 and a copy with a tweaked conv10. */
nn::Network
squeezeNetVariant()
{
    nn::Network base = nn::makeSqueezeNet();
    std::vector<nn::ConvLayer> layers = base.layers();
    layers.back().m = 512;  // different class count, same fire stack
    return nn::Network("SqueezeNet-512", layers);
}

TEST(SessionRegistry, SqueezeNetVariantsShareFrontierRows)
{
    core::SessionRegistry registry(4);
    nn::Network v11 = nn::makeSqueezeNet();
    nn::Network v512 = squeezeNetVariant();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({2880}, 170.0);

    auto first = registry.session(v11, "690t", fpga::DataType::Fixed16)
                     ->sweep(budgets, {});
    core::FrontierRowStore::Stats after_first =
        registry.rowStore()->stats();
    // Fire modules repeat dims inside one SqueezeNet, so even the
    // first network hits shared rows.
    EXPECT_GT(after_first.hits, 0u);

    auto second =
        registry.session(v512, "690t", fpga::DataType::Fixed16)
            ->sweep(budgets, {});
    core::FrontierRowStore::Stats after_second =
        registry.rowStore()->stats();
    // The variant's ranges that avoid the tweaked conv10 are dims-
    // identical to v1.1 rows already in the store: new hits must
    // outnumber new builds by a wide margin.
    size_t new_hits = after_second.hits - after_first.hits;
    size_t new_misses = after_second.misses - after_first.misses;
    EXPECT_GT(new_hits, new_misses)
        << "cross-network sharing should answer most ranges";

    // Shared rows never change answers: both variants match
    // private-table (cold, storeless) runs bit for bit.
    expectSameResult(first[0],
                     coldRun(v11, fpga::DataType::Fixed16, budgets[0]),
                     "v1.1 shared-store vs private");
    expectSameResult(second[0],
                     coldRun(v512, fpga::DataType::Fixed16,
                             budgets[0]),
                     "variant shared-store vs private");
}

/** The joint workload of a Section-4.3 request, via the plan layer. */
nn::Network
jointAlexSqueeze()
{
    core::DseRequest request;
    request.network.clear();
    core::DseSubNet a;
    a.name = "alexnet";
    a.network = "alexnet";
    core::DseSubNet s;
    s.name = "squeezenet";
    s.network = "squeezenet";
    request.subnets = {a, s};
    request.dspBudgets = {1000};
    return core::resolveNetwork(request);
}

TEST(SessionRegistry, JointSessionSharesRowsWithSoloSessions)
{
    // Section 4.3: a joint request is keyed by the *concatenated*
    // dims signature (its own session, distinct from every
    // constituent), but its layer ranges that fall inside one
    // sub-network are dims-identical to that network's solo ranges —
    // so rows built by earlier single-network sessions answer them
    // through the shared FrontierRowStore.
    core::SessionRegistry registry(4);
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network squeezenet = nn::makeSqueezeNet();
    nn::Network joint = jointAlexSqueeze();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({1000}, 100.0);

    registry.session(alexnet, "", fpga::DataType::Float32)
        ->sweep(budgets, {});
    registry.session(squeezenet, "", fpga::DataType::Float32)
        ->sweep(budgets, {});
    core::FrontierRowStore::Stats solo = registry.rowStore()->stats();

    auto result = registry.session(joint, "", fpga::DataType::Float32)
                      ->sweep(budgets, {});
    core::SessionRegistry::Stats reg = registry.stats();
    EXPECT_EQ(reg.sessions, 3u) << "joint key must be distinct";
    EXPECT_EQ(reg.misses, 3u);

    core::FrontierRowStore::Stats after = registry.rowStore()->stats();
    EXPECT_GT(after.hits, solo.hits)
        << "joint ranges inside one sub-network must reuse solo rows";

    // Sharing never changes answers: the joint design matches a cold
    // run of the same concatenated network bit for bit.
    expectSameResult(result[0],
                     coldRun(joint, fpga::DataType::Float32,
                             budgets[0]),
                     "joint shared-store vs cold");

    // And the reverse direction: a fresh registry answering the joint
    // request first shares its rows with a later solo request.
    core::SessionRegistry reversed(4);
    reversed.session(joint, "", fpga::DataType::Float32)
        ->sweep(budgets, {});
    core::FrontierRowStore::Stats joint_only =
        reversed.rowStore()->stats();
    reversed.session(alexnet, "", fpga::DataType::Float32)
        ->sweep(budgets, {});
    core::FrontierRowStore::Stats with_solo =
        reversed.rowStore()->stats();
    EXPECT_GT(with_solo.hits, joint_only.hits)
        << "solo ranges must reuse joint rows";
}

TEST(SessionRegistry, JointSessionStartsDiskWarmFromSoloCaches)
{
    // The fire-module twins of a joint request must hit frontier rows
    // a previous *process* built for the solo networks: solo sessions
    // flush to the persistent cache, and the joint session's in-range
    // lookups come back as hits on the mapped segment.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("mclp_joint_cache_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({1000}, 100.0);
    nn::Network joint = jointAlexSqueeze();

    {
        auto cache =
            std::make_shared<core::FrontierCache>(dir.string());
        core::SessionRegistry solo(4, 0, 1, cache);
        solo.session(nn::makeAlexNet(), "", fpga::DataType::Float32)
            ->sweep(budgets, {});
        solo.session(nn::makeSqueezeNet(), "",
                     fpga::DataType::Float32)
            ->sweep(budgets, {});
        // Registry destruction flushes the cache to disk.
    }

    auto cache = std::make_shared<core::FrontierCache>(dir.string());
    core::SessionRegistry registry(4, 0, 1, cache);
    auto result = registry.session(joint, "", fpga::DataType::Float32)
                      ->sweep(budgets, {});
    core::FrontierRowStore::Stats stats = registry.rowStore()->stats();
    // A fresh process loads through the segment the solo flush
    // published — the cache's only persistent tier.
    EXPECT_GT(stats.mmapHits, 0u)
        << "joint ranges inside one sub-network must load from the "
           "solo networks' persistent cache";
    expectSameResult(result[0],
                     coldRun(joint, fpga::DataType::Float32,
                             budgets[0]),
                     "disk-warm joint vs cold");
    fs::remove_all(dir);
}

} // namespace
} // namespace mclp
