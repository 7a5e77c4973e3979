#include "util/shm.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

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
    int error = ::fstat(fd, &st) != 0 ? errno : st.st_size <= 0 ? EINVAL : 0;
    if (error != 0) {
        ::close(fd);
        errno = error;
        return mapped;
    }
    size_t size = static_cast<size_t>(st.st_size);
    void *addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    error = errno;
    ::close(fd);  // the mapping pins the inode; the fd is done
    if (addr == MAP_FAILED) {
        errno = error;
        return mapped;
    }
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

std::shared_ptr<const ScratchFile>
ScratchFile::create(const std::string &dir)
{
    // Allocate first, so a failed allocation leaves no descriptor open.
    std::shared_ptr<ScratchFile> file(new ScratchFile());
    file->fd_ = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
    if (file->fd_ < 0) {
        // No O_TMPFILE on this filesystem: a name exists only between
        // mkostemp and unlink.
        std::string name = dir + "/.scratch.XXXXXX";
        file->fd_ = ::mkostemp(name.data(), O_CLOEXEC);
        if (file->fd_ < 0)
            return nullptr;
        ::unlink(name.c_str());
    }
    return file;
}

ScratchFile::~ScratchFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ScratchFile::write(uint64_t offset, std::string_view bytes) const
{
    while (!bytes.empty()) {
        ssize_t wrote = ::pwrite(fd_, bytes.data(), bytes.size(),
                                 static_cast<off_t>(offset));
        if (wrote < 0 && errno == EINTR)
            continue;
        if (wrote <= 0) {
            if (wrote == 0)
                errno = ENOSPC;
            return false;
        }
        bytes.remove_prefix(static_cast<size_t>(wrote));
        offset += static_cast<uint64_t>(wrote);
    }
    return true;
}

bool
ScratchFile::read(uint64_t offset, char *out, size_t count) const
{
    while (count > 0) {
        ssize_t got = ::pread(fd_, out, count, static_cast<off_t>(offset));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        out += got;
        count -= static_cast<size_t>(got);
        offset += static_cast<uint64_t>(got);
    }
    return true;
}

} // namespace util
} // namespace mclp
