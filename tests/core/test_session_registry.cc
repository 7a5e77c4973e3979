/**
 * @file
 * The session registry must trade only *warmth*, never correctness:
 * a capacity-1 registry that evicted a session re-answers its
 * requests bit-identically to cold runs; dims-identical networks
 * share a session regardless of name; and the shared FrontierRowStore
 * lets SqueezeNet variants reuse each other's frontier rows while
 * still producing designs bit-identical to private-table runs.
 * Evicted sessions hand their rows back by ownership, with or without
 * a persistent cache: a held session keeps them until its last handle
 * drops, a cached registry decodes an evicted session's rows from
 * the cache's pending log before a flush and from its mapped image
 * after one, the byte budget counts rows either way, and concurrent
 * churn leaves the store empty once every handle is gone.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dse_request.h"
#include "core/dse_session.h"
#include "core/frontier_cache.h"
#include "core/optimizer.h"
#include "core/session_registry.h"
#include "nn/zoo.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "test_helpers.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/string_utils.h"

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

TEST(SessionRegistry, EvictedButHeldSessionKeepsRowsUntilItsHandleDrops)
{
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network squeezenet = nn::makeSqueezeNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({800}, 100.0);

    // Reference: the rows a SqueezeNet session alone holds.
    core::SessionRegistry alone(1);
    alone.session(squeezenet, "690t", fpga::DataType::Float32)
        ->sweep(budgets, {});
    const std::shared_ptr<core::FrontierRowStore> &reference =
        alone.rowStore();

    core::SessionRegistry registry(1);
    const std::shared_ptr<core::FrontierRowStore> &store =
        registry.rowStore();
    auto held = registry.session(alexnet, "690t", fpga::DataType::Float32);
    held->sweep(budgets, {});
    registry.session(squeezenet, "690t", fpga::DataType::Float32)
        ->sweep(budgets, {});
    ASSERT_EQ(registry.stats().evictions, 1u);
    // Evicted but held: the AlexNet rows stay while the handle lives.
    EXPECT_GT(store->stats().rows, reference->stats().rows);

    // Dropping the handle releases them at once, with no eviction.
    held.reset();
    EXPECT_EQ(registry.stats().evictions, 1u);
    EXPECT_EQ(store->stats().rows, reference->stats().rows);
    EXPECT_EQ(store->memoryBytes(), reference->memoryBytes());
}

TEST(SessionRegistry, CachedReacquireDecodesItsRowsBeforeAndAfterAFlush)
{
    // With a cache attached, an evicted session's rows leave with its
    // tables, as they do without one. Re-acquiring the network before
    // a flush decodes every one of those rows from its pending log
    // record, noting nothing again; after a flush it decodes them from
    // the mapped image. It builds none either way, and answers as the
    // first session did.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("mclp_reacquire_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({800}, 100.0);
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network squeezenet = nn::makeSqueezeNet();
    {
        auto cache = std::make_shared<core::FrontierCache>(dir.string());
        core::SessionRegistry registry(1, 0, 1, cache);
        const std::shared_ptr<core::FrontierRowStore> &store =
            registry.rowStore();
        auto sweepAlexNet = [&] {
            return registry.session(alexnet, "690t",
                                    fpga::DataType::Float32)
                ->sweep(budgets, {});
        };
        auto first = sweepAlexNet();
        // The rows the AlexNet session holds, all of them alone.
        const size_t alexnet_rows = store->stats().rows;
        ASSERT_GT(alexnet_rows, 0u);
        registry.session(squeezenet, "690t", fpga::DataType::Float32)
            ->sweep(budgets, {});
        ASSERT_EQ(registry.stats().evictions, 1u);

        core::FrontierRowStore::Stats before = store->stats();
        const size_t pending = cache->stats().rowsPending;
        auto logged = sweepAlexNet();
        core::FrontierRowStore::Stats after = store->stats();
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_EQ(after.mmapHits - before.mmapHits, alexnet_rows);
        EXPECT_EQ(after.rows, alexnet_rows);
        EXPECT_EQ(cache->stats().rowsPending, pending);
        EXPECT_EQ(cache->stats().segmentRowHits, 0u);
        expectSameResult(logged[0], first[0], "decoded before a flush");

        ASSERT_TRUE(cache->flush());
        registry.session(squeezenet, "690t", fpga::DataType::Float32);
        ASSERT_EQ(registry.stats().evictions, 3u);
        EXPECT_EQ(store->stats().rows, 0u);
        before = store->stats();
        auto mapped = sweepAlexNet();
        after = store->stats();
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_EQ(after.mmapHits - before.mmapHits, alexnet_rows);
        EXPECT_EQ(cache->stats().segmentRowHits, alexnet_rows);
        expectSameResult(mapped[0], first[0], "decoded after a flush");
    }
    fs::remove_all(dir);
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

TEST(SessionRegistry, ByteBudgetTriggersEvictionWithACache)
{
    // The same tiny budget with a persistent cache attached. Rows
    // count against it as they do without a cache, so the registry
    // measures the bytes an uncached one does, evicts as it does, and
    // the surviving session still answers correctly.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("mclp_budget_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    nn::Network alexnet = nn::makeAlexNet();
    nn::Network squeezenet = nn::makeSqueezeNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({1500}, 100.0);
    struct Measured
    {
        core::SessionRegistry::Stats registry;
        size_t rowBytes = 0;
    };
    auto run = [&](std::shared_ptr<core::FrontierCache> cache) {
        core::SessionRegistry registry(8, 64 * 1024, 1, std::move(cache));
        registry.session(alexnet, "690t", fpga::DataType::Float32)
            ->sweep(budgets, {});
        registry.session(squeezenet, "690t", fpga::DataType::Float32)
            ->sweep(budgets, {});
        auto session = registry.session(squeezenet, "690t",
                                        fpga::DataType::Float32);
        Measured measured{registry.stats(),
                          registry.rowStore()->memoryBytes()};
        auto result = session->sweep(budgets, {});
        expectSameResult(result[0],
                         coldRun(squeezenet, fpga::DataType::Float32,
                                 budgets[0]),
                         "post byte-cap eviction");
        return measured;
    };
    Measured uncached = run(nullptr);
    Measured cached =
        run(std::make_shared<core::FrontierCache>(dir.string()));
    EXPECT_GE(cached.registry.evictions, 1u)
        << "bytes=" << cached.registry.bytes;
    EXPECT_LE(cached.registry.sessions, 2u);
    EXPECT_EQ(cached.registry.evictions, uncached.registry.evictions);
    EXPECT_EQ(cached.rowBytes, uncached.rowBytes);
    EXPECT_EQ(cached.registry.bytes, uncached.registry.bytes);
    fs::remove_all(dir);
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

/** One request line per small never-seen network and ladder: the
 * first layer's input channels make every network distinct. */
std::vector<std::vector<std::string>>
churnLines(size_t networks)
{
    util::SplitMix64 rng(20170626);
    std::vector<std::vector<std::string>> lines(networks);
    for (size_t n = 0; n < networks; ++n) {
        int64_t in = static_cast<int64_t>(3 + n);
        std::string layers;
        for (int l = 0; l < 3; ++l) {
            int64_t out = rng.nextInt(8, 40);
            int64_t hw = rng.nextInt(7, 14);
            layers += util::strprintf(
                "%sl%d:%lld:%lld:%lld:%lld:3:1", l == 0 ? "" : ";", l,
                static_cast<long long>(in), static_cast<long long>(out),
                static_cast<long long>(hw), static_cast<long long>(hw));
            in = out;
        }
        // Two ladders, so a session can be rebuilt at a larger cap
        // while another thread queries it.
        for (const char *budgets : {"150,400", "150,900"})
            lines[n].push_back(util::strprintf(
                "dse id=c%zu net=churn%zu device=690t budgets=%s "
                "layers=%s",
                n, n, budgets, layers.c_str()));
    }
    return lines;
}

TEST(SessionRegistry, ConcurrentChurnMatchesColdAndReleasesEveryRow)
{
    // Threads churn a capacity-2 registry over distinct networks,
    // each holding its previous session across the next acquisition's
    // evictions, so sessions die on whichever thread drops the last
    // handle — inside the registry lock or outside it.
    constexpr size_t kThreads = 4;
    const std::vector<std::vector<std::string>> lines = churnLines(8);
    std::vector<std::vector<std::string>> cold(lines.size());
    for (size_t n = 0; n < lines.size(); ++n)
        for (const std::string &line : lines[n])
            cold[n].push_back(service::encodeResponse(service::answerRequest(
                service::decodeRequest(line), nullptr)));

    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("mclp_churn_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    for (bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "with a cache" : "without a cache");
        auto registry = std::make_unique<core::SessionRegistry>(
            2, 0, 2,
            cached ? std::make_shared<core::FrontierCache>(dir.string())
                   : nullptr);
        std::vector<size_t> mismatches(kThreads, 0);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                std::shared_ptr<core::DseSession> held;
                for (size_t k = 0; k < 2 * lines.size(); ++k) {
                    size_t n = (3 * t + k) % lines.size();
                    size_t ladder = (t + k / lines.size()) % 2;
                    core::DseRequest request =
                        service::decodeRequest(lines[n][ladder]);
                    if (service::encodeResponse(service::answerRequest(
                            request, registry.get())) != cold[n][ladder])
                        ++mismatches[t];
                    held = registry->session(
                        core::resolveNetwork(request), request.device,
                        request.type);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        for (size_t t = 0; t < kThreads; ++t)
            EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
        EXPECT_GT(registry->stats().evictions, 0u);

        // Once the registry's own references go too, the store has
        // released every row, with a cache as without one.
        std::shared_ptr<core::FrontierRowStore> store =
            registry->rowStore();
        registry.reset();
        EXPECT_EQ(store->stats().rows, 0u);
        EXPECT_EQ(store->memoryBytes(), 0u);
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace mclp
