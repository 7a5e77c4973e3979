#include "util/shm.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

namespace mclp {
namespace util {

MappedFile
MappedFile::map(const std::string &path)
{
    MappedFile mapped;
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return mapped;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return mapped;
    }
    size_t size = static_cast<size_t>(st.st_size);
    void *addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping pins the inode; the fd is done
    if (addr == MAP_FAILED)
        return mapped;
    mapped.addr_ = addr;
    mapped.size_ = size;
    return mapped;
}

void
MappedFile::unmap()
{
    if (addr_) {
        ::munmap(addr_, size_);
        addr_ = nullptr;
        size_ = 0;
    }
}

bool
publishFileAtomic(const std::string &path,
                  const std::function<bool(const ByteSink &)> &write)
{
    std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file)
        return false;
    // A segment arrives as hundreds of thousands of small pieces (slots,
    // keys, payloads); the buffer turns them into one write(2) a buffer.
    char buffer[1 << 16];
    std::setvbuf(file, buffer, _IOFBF, sizeof buffer);
    bool ok = false;
    try {
        ok = write([file](std::string_view bytes) {
            return bytes.empty() ||
                   std::fwrite(bytes.data(), 1, bytes.size(), file) ==
                       bytes.size();
        });
    } catch (...) {
        std::fclose(file);
        ::unlink(tmp.c_str());
        throw;
    }
    ok = std::fflush(file) == 0 && ok;
    ok = ::fsync(::fileno(file)) == 0 && ok;
    ok = std::fclose(file) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

bool
publishFileAtomic(const std::string &path, std::string_view bytes)
{
    return publishFileAtomic(
        path, [bytes](const ByteSink &sink) { return sink(bytes); });
}

} // namespace util
} // namespace mclp
