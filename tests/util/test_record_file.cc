/**
 * @file
 * The cache's byte layer must be paranoid on the way in and atomic on
 * the way out: payloads round-trip bit-exactly (doubles included),
 * reads past the end latch failure instead of crashing, and the
 * advisory lock serializes concurrent read-modify-publish writers.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/record_file.h"
#include "util/shm.h"

namespace mclp {
namespace {

namespace fs = std::filesystem;

/** A fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    fs::path path;

    ScratchDir()
    {
        static int counter = 0;
        path = fs::temp_directory_path() /
               ("mclp_recordfile_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        fs::create_directories(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    std::string file(const char *name) const
    {
        return (path / name).string();
    }
};

TEST(ByteCodec, RoundTripsEveryTypeBitExactly)
{
    util::ByteWriter out;
    out.u8(0xab);
    out.u32(0xdeadbeef);
    out.u64(0x0123456789abcdefULL);
    out.i64(-42);
    out.f64(19.42);
    out.f64(-0.0);
    out.f64(1e-310);  // denormal: bit pattern must survive

    util::ByteReader in(out.bytes());
    uint8_t u8v;
    uint32_t u32v;
    uint64_t u64v;
    int64_t i64v;
    double f1, f2, f3;
    ASSERT_TRUE(in.u8(u8v) && in.u32(u32v) && in.u64(u64v) &&
                in.i64(i64v) && in.f64(f1) && in.f64(f2) &&
                in.f64(f3));
    EXPECT_EQ(u8v, 0xab);
    EXPECT_EQ(u32v, 0xdeadbeefu);
    EXPECT_EQ(u64v, 0x0123456789abcdefULL);
    EXPECT_EQ(i64v, -42);
    EXPECT_EQ(f1, 19.42);
    EXPECT_TRUE(f2 == 0.0 && std::signbit(f2));
    EXPECT_EQ(f3, 1e-310);
    EXPECT_TRUE(in.atEnd());

    // Reading past the end latches failure instead of crashing.
    EXPECT_FALSE(in.u64(u64v));
    EXPECT_FALSE(in.ok());
    EXPECT_FALSE(in.u8(u8v));
}

/** The whole file, or empty when absent. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(WordFold, AnyWholeWordSplitFoldsAlikeAndAnyFlipShows)
{
    // The segment's writer folds its slot table one slot at a time
    // while open() folds it in one call, and a record check folds key
    // words then payload: splits at whole words must agree, and every
    // flipped byte, the seed and the length must change the check.
    std::string bytes(203, '\0');
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 37 + 11);
    auto fold = [](const std::string &data, std::vector<size_t> cuts,
                   uint64_t seed) {
        util::WordFold folded(seed);
        size_t at = 0;
        cuts.push_back(data.size());
        for (size_t cut : cuts) {
            folded.add(data.data() + at, cut - at);
            at = cut;
        }
        return folded.finish();
    };
    const uint64_t whole = fold(bytes, {}, 7);
    for (std::vector<size_t> cuts :
         {std::vector<size_t>{8}, {24, 32, 96}, {8, 16, 24, 32, 200},
          {0, 0, 56}})
        EXPECT_EQ(fold(bytes, cuts, 7), whole);
    EXPECT_NE(fold(bytes, {}, 8), whole);
    EXPECT_NE(fold(bytes.substr(0, 202), {}, 7), whole);
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::string flipped = bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
        EXPECT_NE(fold(flipped, {}, 7), whole) << "byte " << i;
    }
}

TEST(RecordFile, FileLockSerializesWriters)
{
    ScratchDir dir;
    std::string lock_path = dir.file("lock");
    std::string data_path = dir.file("data.seg");

    // N threads each republish the file with one more line than they
    // found, under the lock — the cache flush's read-merge-publish
    // cycle. Serialized correctly, the final file holds exactly N
    // lines; lost updates would leave fewer.
    constexpr int kWriters = 8;
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&] {
            util::FileLock lock(lock_path);
            ASSERT_TRUE(lock.locked());
            std::string lines = slurp(data_path);
            size_t count = static_cast<size_t>(
                std::count(lines.begin(), lines.end(), '\n'));
            lines += "record-" + std::to_string(count) + "\n";
            ASSERT_TRUE(util::publishFileAtomic(data_path, lines));
        });
    }
    for (std::thread &writer : writers)
        writer.join();

    std::string lines = slurp(data_path);
    EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), kWriters);
    std::string last = "record-" + std::to_string(kWriters - 1) + "\n";
    ASSERT_GE(lines.size(), last.size());
    EXPECT_EQ(lines.substr(lines.size() - last.size()), last);
    EXPECT_FALSE(fs::exists(data_path + ".tmp"));
}

} // namespace
} // namespace mclp
