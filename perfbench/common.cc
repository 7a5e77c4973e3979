#include "common.h"

#include <dirent.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

void
die(const char *fmt, ...)
{
    char message[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(message, sizeof(message), fmt, args);
    va_end(args);
    throw Failure(message);
}

Args::Args(const std::vector<std::string> &args)
{
    for (size_t i = 0; i < args.size(); i += 2) {
        if (args[i].rfind("--", 0) != 0 || i + 1 >= args.size())
            die("expected --key value pairs, got '%s'", args[i].c_str());
        values_[args[i].substr(2)] = args[i + 1];
    }
}

std::string
Args::text(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

int64_t
Args::number(const std::string &key, int64_t fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    long long value = std::strtoll(it->second.c_str(), &end, 10);
    if (it->second.empty() || *end != '\0')
        die("--%s needs a whole number", key.c_str());
    return value;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read %s", path.c_str());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path);
    for (const std::string &line : lines)
        out << line << '\n';
    if (!out.flush())
        die("cannot write %s", path.c_str());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
middleMean(std::vector<double> values)
{
    if (values.size() < 4)
        return median(std::move(values));
    std::sort(values.begin(), values.end());
    size_t quarter = values.size() / 4;
    double sum = 0.0;
    for (size_t i = quarter; i < values.size() - quarter; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * quarter);
}

void
JsonObject::key(const std::string &key)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += "\"" + key + "\": ";
}

void
JsonObject::add(const std::string &k, double value)
{
    if (!std::isfinite(value))
        die("metric %s is not finite", k.c_str());
    char text[64];
    std::snprintf(text, sizeof(text), "%.12g", value);
    key(k);
    body_ += text;
}

void
JsonObject::add(const std::string &k, int64_t value)
{
    key(k);
    body_ += std::to_string(value);
}

void
JsonObject::add(const std::string &k, const std::string &value)
{
    key(k);
    body_ += "\"" + value + "\"";
}

void
JsonObject::addRaw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
}

Oracle
loadOracle(const std::string &path)
{
    std::vector<std::string> lines = readLines(path);
    if (lines.size() % 2 != 0)
        die("%s holds an unpaired request line", path.c_str());
    Oracle oracle;
    for (size_t i = 0; i < lines.size(); i += 2)
        oracle[lines[i]] = lines[i + 1];
    return oracle;
}

void
Tally::check(const std::string &request, const std::string &answer,
             const Oracle &oracle)
{
    ++attempted;
    auto it = oracle.find(request);
    if (it == oracle.end())
        die("no expected answer for request: %s", request.c_str());
    if (answer.rfind("err", 0) == 0)
        ++errors;
    else if (answer != it->second)
        ++mismatched;
    else
        ++ok;
}

void
Tally::addTo(JsonObject &json) const
{
    json.add("attempted", attempted);
    json.add("ok", ok);
    json.add("failed", failed());
    json.add("mismatched", mismatched);
    json.add("errors", errors);
    json.add("transport", transport);
}

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Fields of /proc/PID/stat after the parenthesized command name
 * (field 3 onward); empty when the process is gone. */
std::vector<std::string>
statFields(pid_t pid)
{
    std::string text = slurp("/proc/" + std::to_string(pid) + "/stat");
    size_t close = text.rfind(')');
    std::vector<std::string> fields;
    if (close == std::string::npos)
        return fields;
    std::istringstream in(text.substr(close + 1));
    std::string field;
    while (in >> field)
        fields.push_back(field);
    return fields;
}

} // namespace

double
processCpuSeconds(pid_t pid)
{
    std::vector<std::string> f = statFields(pid);
    if (f.size() < 13)
        die("cannot read CPU time of pid %d", static_cast<int>(pid));
    // Fields 14 (utime) and 15 (stime), counted from 1.
    double ticks = std::stod(f[11]) + std::stod(f[12]);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
threadsCpuSeconds(pid_t pid)
{
    std::string task = "/proc/" + std::to_string(pid) + "/task";
    double seconds = 0.0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(task, ec)) {
        std::istringstream in(slurp(entry.path().string() + "/schedstat"));
        double ns = 0.0;
        if (in >> ns)
            seconds += ns / 1e9;
    }
    if (ec)
        die("cannot list the threads of pid %d", static_cast<int>(pid));
    return seconds;
}

int64_t
processPeakRssBytes(pid_t pid)
{
    std::istringstream in(
        slurp("/proc/" + std::to_string(pid) + "/status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoll(line.substr(6)) * 1024;
    }
    die("cannot read peak RSS of pid %d", static_cast<int>(pid));
}

std::vector<pid_t>
processTree(pid_t root)
{
    std::vector<std::pair<pid_t, pid_t>> parents;  // (pid, ppid)
    if (DIR *dir = opendir("/proc")) {
        while (dirent *entry = readdir(dir)) {
            char *end = nullptr;
            long pid = std::strtol(entry->d_name, &end, 10);
            if (*end != '\0' || pid <= 0)
                continue;
            std::vector<std::string> f = statFields(static_cast<pid_t>(pid));
            if (f.size() >= 2)
                parents.emplace_back(static_cast<pid_t>(pid),
                                     static_cast<pid_t>(std::stol(f[1])));
        }
        closedir(dir);
    }
    std::vector<pid_t> tree{root};
    for (size_t i = 0; i < tree.size(); ++i) {
        for (const auto &[pid, ppid] : parents)
            if (ppid == tree[i])
                tree.push_back(pid);
    }
    return tree;
}

int64_t
directoryBytes(const std::string &dir)
{
    std::error_code ec;
    int64_t bytes = 0;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            bytes += static_cast<int64_t>(it->file_size(ec));
    }
    return bytes;
}

std::string
directoryState(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        struct stat st{};
        if (!it->is_regular_file(ec) ||
            ::stat(it->path().c_str(), &st) != 0)
            continue;
        char line[64];
        std::snprintf(line, sizeof(line), " %lld %llu %lld.%09ld",
                      static_cast<long long>(st.st_size),
                      static_cast<unsigned long long>(st.st_ino),
                      static_cast<long long>(st.st_mtim.tv_sec),
                      st.st_mtim.tv_nsec);
        files.push_back(it->path().string() + line);
    }
    std::sort(files.begin(), files.end());
    std::string state;
    for (const std::string &file : files)
        state += file + "\n";
    return state;
}

namespace {

constexpr size_t kProbeWords = (size_t{128} << 20) / sizeof(uint64_t);

} // namespace

HostProbe::HostProbe()
{
    void *map = mmap(nullptr, kProbeWords * sizeof(uint64_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (map == MAP_FAILED)
        die("cannot map the host probe's buffer");
    // Servers are forked from this process: keeping the buffer out of
    // their address space keeps it out of the measured spawn time.
    madvise(map, kProbeWords * sizeof(uint64_t), MADV_DONTFORK);
    buffer_ = static_cast<uint64_t *>(map);
    std::fill(buffer_, buffer_ + kProbeWords, uint64_t{1});
}

HostProbe::~HostProbe()
{
    munmap(buffer_, kProbeWords * sizeof(uint64_t));
}

double
HostProbe::pass()
{
    // The fastest of three reads: an interrupt or a stolen tick
    // during one read says nothing about the host's bandwidth.
    double best = 0.0;
    for (int read = 0; read < 3; ++read) {
        Clock::time_point start = Clock::now();
        uint64_t sum = 0;
        for (size_t i = 0; i < kProbeWords; i += 2)
            sum += buffer_[i];
        sink_ = sink_ + sum;
        double seconds = secondsBetween(start, Clock::now());
        best = read == 0 ? seconds : std::min(best, seconds);
    }
    return best;
}

} // namespace perfbench
